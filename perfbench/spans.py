"""Span tracer for the benchmark's traced run.

Spans are recorded from outside the program: the benchmark wraps public
functions and methods of each layer, so the program under test is unchanged.
Every span keeps its name, start and end (``time.perf_counter_ns``), the index
of the span that was open when it started (its parent) and the id of the
benchmark job it ran under.  Spans stay in memory while the run goes on and
are written out as JSONL once it ends.

Wrappers have to be in place before anything binds the wrapped functions by
name: ``repro.sim.engine`` copies ``shardeval.evaluate_shard`` and
``summarize_shard`` into its own globals at import time, and ``shardeval``
imports ``mse_of_fault_map`` by name.  :func:`install_on_import` therefore
patches each target module right after its body has executed, before any
other module can import from it.
"""

from __future__ import annotations

import hashlib
import importlib.abc
import importlib.machinery
import json
import math
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: (name, start_ns, end_ns, parent index or -1, job id).
Span = Tuple[str, int, int, int, Optional[str]]


class Tracer:
    """In-memory span recorder with per-layer side counters.

    Span fields live in parallel flat lists rather than one container per
    span, so that hundreds of thousands of spans add no work to the cyclic
    garbage collector while the run goes on.
    """

    def __init__(self) -> None:
        self._names: List[str] = []
        self._starts: List[int] = []
        self._ends: List[int] = []
        self._parents: List[int] = []
        self._jobs: List[Optional[str]] = []
        self.job: Optional[str] = None
        self._open: List[int] = []
        #: Extra per-layer counts keyed by (job id, counter name).
        self.counters: Dict[Tuple[Optional[str], str], float] = {}
        self._seen_digests: set = set()

    @property
    def spans(self) -> List[Span]:
        return list(
            zip(self._names, self._starts, self._ends, self._parents, self._jobs)
        )

    def start_job(self, job: str) -> None:
        """Route later spans to ``job``; repeat detection restarts per job."""
        self.job = job
        self._seen_digests = set()

    def count(self, name: str, amount: float = 1) -> None:
        key = (self.job, name)
        self.counters[key] = self.counters.get(key, 0) + amount

    def note_digest(self, digest: bytes) -> None:
        """Count a repeated input when ``digest`` was already seen in this job."""
        if digest in self._seen_digests:
            self.count("apps.fit_score.repeats")
        else:
            self._seen_digests.add(digest)

    def begin(self, name: str) -> int:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._open[-1] if self._open else -1)
        self._jobs.append(self.job)
        self._ends.append(0)
        self._open.append(index)
        self._starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self._ends[index] = time.perf_counter_ns()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped} open)")

    def wrap(
        self,
        name: str,
        function: Callable,
        before: Optional[Callable[["Tracer", tuple, dict], None]] = None,
        after: Optional[Callable[["Tracer", tuple, dict, object], None]] = None,
    ) -> Callable:
        """``function`` recorded as a span ``name``.

        ``before`` runs ahead of the span (so its cost, such as hashing an
        input, stays out of the layer's time) and ``after`` sees the result.
        """
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            index = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__name__ = getattr(function, "__name__", name)
        traced.__qualname__ = getattr(function, "__qualname__", name)
        traced.__doc__ = function.__doc__
        traced.__wrapped__ = function
        return traced

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "job": job,
                        }
                    )
                    + "\n"
                )


# --------------------------------------------------------------------------- #
# Installing wrappers
# --------------------------------------------------------------------------- #
#: A patch target: (module, dotted attribute inside it, span name, before, after).
Target = Tuple[str, str, str, Optional[Callable], Optional[Callable]]


def _apply(tracer: Tracer, module: object, targets: Iterable[Target]) -> None:
    for _module, attribute, span, before, after in targets:
        owner = module
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        setattr(owner, leaf, tracer.wrap(span, getattr(owner, leaf), before, after))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Finds the target modules first and patches them right after execution."""

    def __init__(self, tracer: Tracer, targets: Sequence[Target]) -> None:
        self._tracer = tracer
        self._by_module: Dict[str, List[Target]] = {}
        for target in targets:
            self._by_module.setdefault(target[0], []).append(target)
        self.patched: List[str] = []

    def find_spec(self, fullname, path, target=None):
        if fullname not in self._by_module:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        loader = spec.loader
        execute = loader.exec_module

        def exec_module(module):
            execute(module)
            _apply(self._tracer, module, self._by_module[fullname])
            self.patched.append(fullname)

        loader.exec_module = exec_module
        return spec


def install_on_import(tracer: Tracer, targets: Sequence[Target]) -> _PatchOnImport:
    """Arrange for every target to be wrapped as its module is first imported.

    Raises if a target module is already imported: its names may have been
    bound elsewhere unwrapped.  Call :func:`check_installed` after importing.
    """
    loaded = sorted({t[0] for t in targets if t[0] in sys.modules})
    if loaded:
        raise RuntimeError(f"already imported, cannot trace: {', '.join(loaded)}")
    finder = _PatchOnImport(tracer, targets)
    sys.meta_path.insert(0, finder)
    return finder


def check_installed(finder: _PatchOnImport, targets: Sequence[Target]) -> None:
    missing = sorted({t[0] for t in targets} - set(finder.patched))
    if missing:
        raise RuntimeError(f"trace targets never imported: {', '.join(missing)}")


# --------------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------------- #
def covered_ns(intervals: Iterable[Tuple[int, int]], start: int, end: int) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered_ns(children.get(index, ()), start, end)
        for index, (_name, start, end, _parent, _job) in enumerate(spans)
    ]


def percentile_with_tail(
    samples: Sequence[float], percent: float, min_beyond: int = 10
) -> Optional[float]:
    """The ``percent``-th percentile of ``samples`` (nearest rank), or ``None``
    when fewer than ``min_beyond`` samples lie above it."""
    count = len(samples)
    if count == 0:
        return None
    rank = max(1, math.ceil(percent / 100.0 * count))
    if count - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def digest_array(array) -> bytes:
    """Content digest of a NumPy array (shape, dtype and bytes)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((array.shape, array.dtype.str)).encode())
    digest.update(array.tobytes())
    return digest.digest()


def layer_totals(
    spans: Sequence[Span], self_ns: Sequence[int], jobs: Optional[set] = None
) -> Dict[str, Tuple[int, int, int]]:
    """``{span name: (calls, self ns, inclusive ns)}`` over the spans of
    ``jobs`` (all spans when ``jobs`` is None)."""
    totals: Dict[str, List[int]] = {}
    for (name, start, end, _parent, job), own in zip(spans, self_ns):
        if jobs is not None and job not in jobs:
            continue
        entry = totals.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += own
        entry[2] += end - start
    return {name: tuple(entry) for name, entry in totals.items()}
