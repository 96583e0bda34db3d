"""Regenerate the stored reference outputs the benchmark checks jobs against.

Run from the repository root only when the program's results are meant to
change (a separately justified golden re-pin), never to make a failing
benchmark pass::

    PYTHONPATH=src python3 perfbench/make_reference.py [WORKLOAD ...]

For every input slot it runs a cold and a warm pass, requires the two to
agree, and stores the cold pass's outputs in ``perfbench/references/``.
"""

import os
import shutil
import sys
import tempfile

import reference
import workloads


def generate(name: str, scratch_root: str) -> None:
    cls = workloads.WORKLOADS[name]
    slots = {}
    for slot in range(cls.slots):
        scratch = tempfile.mkdtemp(dir=scratch_root)
        try:
            workload = cls(slot, scratch)
            workload.begin_round()
            passes = {}
            for pass_name in ("cold", "warm"):
                passes[pass_name] = {
                    job.name: reference.normalise(job.run(pass_name)[0])
                    for job in workload.jobs()
                }
            disagree = reference.compare(passes["cold"], passes["warm"])
            if disagree:
                raise SystemExit(f"{name} slot {slot}: warm != cold: {disagree}")
            slots[str(slot)] = passes["cold"]
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        print(f"{name}: slot {slot} done", file=sys.stderr)
    reference.save(name, slots)


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(unknown)}")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    scratch_root = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(scratch_root, exist_ok=True)
    for name in names:
        generate(name, scratch_root)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
