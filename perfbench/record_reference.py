"""Record the reference outputs that the benchmark checks tasks against.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload part at the reference seed
on the code under src/felogit and writes perfbench/reference.json.
Record only from code whose outputs are known good: the committed file
was recorded from the code the benchmark was first written against.
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE_SEED = 0


def main():
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import workloads
    from tracing import NullTracer

    doc = {"seed": REFERENCE_SEED}
    for parts in workloads.WORKLOADS.values():
        for part in parts:
            tasks = part(REFERENCE_SEED, {}).run_pass(NullTracer())
            failed = [t for t in tasks if t["problems"]]
            if failed:
                sys.exit(f"{part.name}: {failed[0]['id']} failed: "
                         f"{failed[0]['problems']}")
            doc[part.name] = {t["id"]: t["outputs"] for t in tasks}
            print(f"{part.name}: {len(tasks)} tasks recorded", file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
