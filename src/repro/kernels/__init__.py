"""Kernel-backend registry and capability probe.

The hot Monte-Carlo datapath (SECDED syndrome machinery, FM-LUT rotation
apply, corruption masks, 2's-complement codecs, the rejection sampler's
validity check) runs through whichever :class:`~repro.kernels.api.KernelBackend`
this module selects at first use:

* ``REPRO_KERNEL_BACKEND={numpy,c}`` forces a backend.  If the forced
  backend cannot be built (no compiler, failed self-test) a single
  :class:`RuntimeWarning` is emitted and the ``numpy`` reference is used
  instead — the run still completes, just slower.
* Unset, the probe tries ``c`` and falls back to ``numpy`` **silently**:
  machines without a toolchain behave exactly as before this registry
  existed.

Every candidate is self-tested against the NumPy reference on deterministic
inputs before it can be selected, so a miscompiled kernel can never leak
non-identical results into a run.  Backend choice changes throughput only —
never results (the rng draws themselves always stay in NumPy).
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Callable, Dict, Iterator, List, Optional

import numpy as np

from repro.kernels.api import KernelBackend, KernelUnavailableError, SecdedKernelSpec
from repro.kernels.numpy_backend import NumpyKernelBackend

__all__ = [
    "KernelBackend",
    "KernelUnavailableError",
    "SecdedKernelSpec",
    "active_backend",
    "available_backends",
    "reset_active_backend",
    "set_backend",
    "use_backend",
]

ENV_BACKEND = "REPRO_KERNEL_BACKEND"

_REFERENCE = NumpyKernelBackend()
_active: Optional[KernelBackend] = None


def _make_c_backend() -> KernelBackend:
    from repro.kernels.c_backend import CKernelBackend

    return CKernelBackend()


_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "numpy": lambda: _REFERENCE,
    "c": _make_c_backend,
}

#: Auto-probe preference: fastest first, reference last (always succeeds).
_AUTO_ORDER = ("c", "numpy")


def _self_test(candidate: KernelBackend) -> None:
    """Compare the candidate against the NumPy reference on fixed inputs.

    Raises :class:`KernelUnavailableError` on the first mismatch; the probe
    then discards the candidate.  Cases cover every kernel, including the
    boundary patterns (all-zeros, all-ones) and a duplicate-cell redraw.
    """
    if candidate is _REFERENCE:
        return
    rng = np.random.default_rng(20150607)  # DAC'15 publication date

    # SECDED over an 8-bit data word (the paper's configuration).
    positions = [p for p in range(1, 14) if (p & (p - 1)) != 0]
    parity_pos = [1 << j for j in range(4)]
    masks = [
        np.uint64(sum(1 << p for p in range(1, 14) if (p >> j) & 1))
        for j in range(4)
    ]
    spec = SecdedKernelSpec(
        data_bits=8,
        parity_bits=4,
        codeword_bits=14,
        data_positions=np.array(positions, dtype=np.int64),
        parity_positions=np.array(parity_pos, dtype=np.int64),
        check_masks=np.array(masks, dtype=np.uint64),
    )
    data = np.concatenate(
        [np.array([0, 255, 1, 128], dtype=np.uint64),
         rng.integers(0, 256, size=64).astype(np.uint64)]
    )
    want_cw = _REFERENCE.secded_encode(data, spec)
    got_cw = candidate.secded_encode(data, spec)
    if not np.array_equal(want_cw, got_cw):
        raise KernelUnavailableError(f"{candidate.name}: secded_encode self-test failed")
    flips = np.uint64(1) << rng.integers(0, 14, size=data.size).astype(np.uint64)
    corrupted = want_cw ^ flips
    for method in ("secded_syndrome", "secded_decode"):
        want = getattr(_REFERENCE, method)(corrupted, spec)
        got = getattr(candidate, method)(corrupted, spec)
        want = want if isinstance(want, tuple) else (want,)
        got = got if isinstance(got, tuple) else (got,)
        if not all(np.array_equal(w, g) for w, g in zip(want, got)):
            raise KernelUnavailableError(f"{candidate.name}: {method} self-test failed")

    # FM-LUT apply over a 7-row, width-8, 2-segment LUT.
    width = 8
    entries = rng.integers(0, 4, size=7).astype(np.int64)
    rotations = ((2 - entries) * 4) % width
    rows = rng.integers(0, 7, size=40).astype(np.int64)
    words = rng.integers(0, 1 << width, size=40).astype(np.uint64)
    words[:2] = (0, (1 << width) - 1)
    stored = _REFERENCE.fmlut_encode(words, rows, entries, rotations, width)
    if not np.array_equal(stored, candidate.fmlut_encode(words, rows, entries, rotations, width)):
        raise KernelUnavailableError(f"{candidate.name}: fmlut_encode self-test failed")
    if not np.array_equal(
        _REFERENCE.fmlut_decode(stored, rows, rotations, width),
        candidate.fmlut_decode(stored, rows, rotations, width),
    ):
        raise KernelUnavailableError(f"{candidate.name}: fmlut_decode self-test failed")

    # Corruption masks.
    and_m = rng.integers(0, 1 << 14, size=7).astype(np.uint64)
    or_m = rng.integers(0, 1 << 14, size=7).astype(np.uint64)
    xor_m = rng.integers(0, 1 << 14, size=7).astype(np.uint64)
    pats = rng.integers(0, 1 << 14, size=40).astype(np.uint64)
    if not np.array_equal(
        _REFERENCE.apply_corruption_masks(pats, rows, and_m, or_m, xor_m),
        candidate.apply_corruption_masks(pats, rows, and_m, or_m, xor_m),
    ):
        raise KernelUnavailableError(
            f"{candidate.name}: apply_corruption_masks self-test failed"
        )

    # 2's-complement codecs at both range boundaries.
    values = np.array([-128, 127, 0, -1, 5], dtype=np.int64)
    want_p = _REFERENCE.to_twos_complement(values, 8)
    if not np.array_equal(want_p, candidate.to_twos_complement(values, 8)):
        raise KernelUnavailableError(f"{candidate.name}: to_twos_complement self-test failed")
    if not np.array_equal(
        _REFERENCE.from_twos_complement(want_p, 8),
        candidate.from_twos_complement(want_p, 8),
    ):
        raise KernelUnavailableError(
            f"{candidate.name}: from_twos_complement self-test failed"
        )

    # Rejection-sampler validity check, with and without a per-word cap;
    # row 0 repeats a cell, row 1 packs three faults into one word.
    draws = rng.integers(0, 64, size=(16, 4)).astype(np.int64)
    draws[0] = (3, 3, 10, 20)
    draws[1] = (8, 9, 10, 40)
    for max_fpw in (None, 1, 2):
        if not np.array_equal(
            _REFERENCE.invalid_map_mask(draws, 8, max_fpw),
            candidate.invalid_map_mask(draws, 8, max_fpw),
        ):
            raise KernelUnavailableError(
                f"{candidate.name}: invalid_map_mask self-test failed "
                f"(max_faults_per_word={max_fpw})"
            )


def _build(name: str) -> KernelBackend:
    """Instantiate and self-test one named backend."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KernelUnavailableError(
            f"unknown kernel backend {name!r}; known: {', '.join(sorted(_FACTORIES))}"
        )
    backend = factory()
    _self_test(backend)
    return backend


def _probe() -> KernelBackend:
    forced = os.environ.get(ENV_BACKEND)
    if forced:
        try:
            return _build(forced.strip().lower())
        except KernelUnavailableError as exc:
            warnings.warn(
                f"{ENV_BACKEND}={forced!r} unavailable ({exc}); "
                "falling back to the numpy reference backend",
                RuntimeWarning,
                stacklevel=3,
            )
            return _REFERENCE
    for name in _AUTO_ORDER:
        try:
            return _build(name)
        except KernelUnavailableError:
            continue
    return _REFERENCE


def active_backend() -> KernelBackend:
    """The process-wide backend, probing (once) on first use."""
    global _active
    if _active is None:
        _active = _probe()
    return _active


def set_backend(backend) -> KernelBackend:
    """Force the process-wide backend; accepts a name or an instance."""
    global _active
    if isinstance(backend, str):
        backend = _build(backend.strip().lower())
    elif not isinstance(backend, KernelBackend):
        raise TypeError(f"expected backend name or KernelBackend, got {type(backend)!r}")
    _active = backend
    return backend


def reset_active_backend() -> None:
    """Drop the cached selection so the next use re-probes (test hook)."""
    global _active
    _active = None


@contextlib.contextmanager
def use_backend(backend) -> Iterator[KernelBackend]:
    """Temporarily switch the process-wide backend (test/bench hook)."""
    global _active
    previous = _active
    try:
        yield set_backend(backend)
    finally:
        _active = previous


def available_backends() -> List[str]:
    """Names of backends that build and pass the self-test on this machine."""
    names = []
    for name in _FACTORIES:
        try:
            _build(name)
        except KernelUnavailableError:
            continue
        names.append(name)
    return names
