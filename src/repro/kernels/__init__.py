"""Array kernels of the hot Monte-Carlo datapath.

The kernels live in :class:`~repro.kernels.numpy_backend.NumpyKernelBackend`;
the scheme, code and fault-map wrappers reach them through
:func:`active_backend`.
"""

from __future__ import annotations

from repro.kernels.numpy_backend import NumpyKernelBackend

__all__ = ["active_backend"]

_BACKEND = NumpyKernelBackend()


def active_backend() -> NumpyKernelBackend:
    """The process-wide kernel implementation."""
    return _BACKEND
