"""Micro-benchmarks of the protection-scheme datapaths.

These are not paper figures; they characterise the simulation performance of
the library itself (scalar and batch encode/decode throughput of each scheme
and the Monte-Carlo MSE evaluation), which determines how far the Fig. 5 /
Fig. 7 budgets can be raised on a given machine.

``test_bit_shuffle_batch_speedup`` additionally pins down the headline win of
the vectorised datapath: the batch ``encode_words``/``decode_words`` round
trip must beat the scalar word-at-a-time loop by at least 10x on the
bit-shuffle scheme (in practice the margin is two orders of magnitude).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.no_protection import NoProtection
from repro.core.priority_ecc import PriorityEccScheme
from repro.core.scheme import BitShuffleScheme
from repro.core.secded_scheme import SecdedScheme
from repro.faultmodel.montecarlo import FaultMapSampler
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.quality.mse import mse_from_error_positions, mse_of_fault_map


WORDS = (np.arange(1, 257, dtype=np.uint64) * np.uint64(0x01010101)) & np.uint64(
    0xFFFFFFFF
)

BATCH_ROWS = 256
BATCH_WORDS = (
    np.arange(1, 65537, dtype=np.uint64) * np.uint64(0x9E3779B9)
) & np.uint64(0xFFFFFFFF)
BATCH_ROW_INDICES = (np.arange(BATCH_WORDS.size) % BATCH_ROWS).astype(np.int64)

SCHEME_FACTORIES = [
    pytest.param(lambda: NoProtection(32), id="no-protection"),
    pytest.param(lambda: SecdedScheme(32), id="secded"),
    pytest.param(lambda: PriorityEccScheme(32), id="p-ecc"),
    pytest.param(
        lambda: BitShuffleScheme(32, 1, rows=BATCH_ROWS), id="bit-shuffle-nfm1"
    ),
    pytest.param(
        lambda: BitShuffleScheme(32, 5, rows=BATCH_ROWS), id="bit-shuffle-nfm5"
    ),
]


def _make_scheme(scheme_factory):
    """Instantiate a scheme and program non-trivial per-row state if it has any."""
    scheme = scheme_factory()
    if hasattr(scheme, "lut"):
        scheme.program({row: [(row * 7) % 32] for row in range(0, BATCH_ROWS, 3)})
    return scheme


def _record_rate(json_summary, benchmark, record, words, scheme_id):
    """Emit a words/s record from the best timed round.

    ``--benchmark-disable`` runs the body once untimed and leaves
    ``benchmark.stats`` unset; there is no rate to record then.
    """
    if benchmark.stats is None:
        return
    json_summary(
        record,
        {"scheme": scheme_id, "words_per_second": words / benchmark.stats.stats.min},
    )


def _scalar_roundtrip(scheme, rows, words):
    total = 0
    for row, word in zip(rows.tolist(), words.tolist()):
        stored = scheme.encode_word(row, int(word))
        total += scheme.decode_word(row, stored)
    return total


def _batch_roundtrip(scheme, rows, words):
    stored = scheme.encode_words(rows, words)
    return int(scheme.decode_words(rows, stored).sum())


@pytest.mark.parametrize("scheme_factory", SCHEME_FACTORIES)
def test_encode_decode_throughput(benchmark, scheme_factory, request, json_summary):
    """Scalar encode+decode throughput of each scheme (256 words per round)."""
    scheme = _make_scheme(scheme_factory)
    result = benchmark(
        _scalar_roundtrip, scheme, BATCH_ROW_INDICES[: WORDS.size], WORDS
    )
    assert result > 0
    _record_rate(
        json_summary, benchmark, "datapath_scalar_throughput", WORDS.size, request.node.callspec.id
    )


@pytest.mark.parametrize("scheme_factory", SCHEME_FACTORIES)
def test_batch_encode_decode_throughput(benchmark, scheme_factory, request, json_summary):
    """Batch encode_words+decode_words throughput (64k words per round)."""
    scheme = _make_scheme(scheme_factory)
    result = benchmark(
        _batch_roundtrip, scheme, BATCH_ROW_INDICES, BATCH_WORDS
    )
    assert result > 0
    _record_rate(
        json_summary, benchmark, "datapath_batch_throughput", BATCH_WORDS.size, request.node.callspec.id
    )


@pytest.mark.parametrize("scheme_factory", SCHEME_FACTORIES)
def test_batch_matches_scalar(scheme_factory):
    """The timed batch path returns exactly what the timed scalar path returns."""
    scheme = _make_scheme(scheme_factory)
    n = 512
    assert _batch_roundtrip(
        scheme, BATCH_ROW_INDICES[:n], BATCH_WORDS[:n]
    ) == _scalar_roundtrip(scheme, BATCH_ROW_INDICES[:n], BATCH_WORDS[:n])


def test_bit_shuffle_batch_speedup(json_summary):
    """Batch datapath must be >= 10x faster than the scalar seed path."""
    scheme = _make_scheme(lambda: BitShuffleScheme(32, 2, rows=BATCH_ROWS))
    n = 65536

    start = time.perf_counter()
    _scalar_roundtrip(scheme, BATCH_ROW_INDICES[:n], BATCH_WORDS[:n])
    scalar_seconds = time.perf_counter() - start

    batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _batch_roundtrip(scheme, BATCH_ROW_INDICES[:n], BATCH_WORDS[:n])
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    speedup = scalar_seconds / batch_seconds
    print(
        f"\nbit-shuffle batch speedup: {speedup:.1f}x "
        f"(scalar {n / scalar_seconds:,.0f} words/s, "
        f"batch {n / batch_seconds:,.0f} words/s)"
    )
    json_summary(
        "datapath_batch_speedup",
        {
            "scheme": "bit-shuffle-nfm2",
            "speedup_vs_scalar": speedup,
            "scalar_words_per_second": n / scalar_seconds,
            "batch_words_per_second": n / batch_seconds,
        },
    )
    assert speedup >= 10.0


def _cold_maps(organization, cells):
    """Rebuild fault maps from their cell arrays, so no per-map cache is warm."""
    return [
        FaultMap.from_cell_arrays(organization, rows, columns)
        for rows, columns in cells
    ]


def _scalar_mse(fault_map, scheme):
    """The scalar reference: one ``residual_error_positions`` call per faulty row."""
    return mse_from_error_positions(
        [
            scheme.residual_error_positions(row, columns)
            for row, columns in fault_map.faulty_columns_by_row().items()
        ],
        fault_map.organization.rows,
    )


def test_mse_evaluation_throughput(benchmark, json_summary):
    """Analytical MSE evaluation rate over random 16 kB fault maps.

    Every timed round scores maps freshly rebuilt from their cell arrays, so
    the rate covers the whole evaluator -- row grouping included -- rather
    than a cache warmed by an earlier round.  Gate: the table-driven
    ``mse_of_fault_map`` scores at least 10x the maps per second of the
    scalar reference on the same cold maps, and returns the same bits.
    """
    org = MemoryOrganization.paper_16kb()
    sampler = FaultMapSampler(org, np.random.default_rng(5))
    cells = [
        (
            np.array([fault.row for fault in fault_map]),
            np.array([fault.column for fault in fault_map]),
        )
        for fault_map in sampler.sample_batch(100, 20)
    ]
    scheme = BitShuffleScheme(32, 2)

    def evaluate(fault_maps):
        return [mse_of_fault_map(m, scheme) for m in fault_maps]

    def cold_round():
        return (_cold_maps(org, cells),), {}

    values = benchmark.pedantic(evaluate, setup=cold_round, rounds=20)
    assert values == [_scalar_mse(m, scheme) for m in _cold_maps(org, cells)]

    def best_seconds(score, repeats):
        best = float("inf")
        for _ in range(repeats):
            fault_maps = _cold_maps(org, cells)
            start = time.perf_counter()
            for fault_map in fault_maps:
                score(fault_map, scheme)
            best = min(best, time.perf_counter() - start)
        return best

    table_rate = len(cells) / best_seconds(mse_of_fault_map, 20)
    scalar_rate = len(cells) / best_seconds(_scalar_mse, 5)
    speedup = table_rate / scalar_rate
    print(
        f"\nMSE evaluation speedup: {speedup:.1f}x "
        f"(scalar {scalar_rate:,.0f} maps/s, table {table_rate:,.0f} maps/s)"
    )
    json_summary(
        "mse_evaluation_throughput",
        {
            "maps_per_second": table_rate,
            "scalar_maps_per_second": scalar_rate,
            "speedup_vs_scalar": speedup,
        },
    )
    assert speedup >= 10.0
