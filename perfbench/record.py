"""Record the reference outputs of every benchmark unit into references.json.

    python3 perfbench/record.py

Runs every unit of every workload once (all noise seeds of fig5-sim8),
through the same calls the benchmark makes, and writes the outputs the
benchmark checks to references.json from scratch.  A recording takes
about 3 minutes on one core of a 2-CPU x86-64 host.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
sys.path.insert(0, str(HERE.parent / "src"))

import suite  # noqa: E402  (needs the src path above)

ABOUT = (
    "Reference outputs of every benchmark unit, recorded from the "
    "repro package at the commit that introduced the benchmark. Floats "
    "are compared at the stated rtol/atol, integers and flags exactly. "
    "'allocations' and 'budgets' are suite.fingerprint() projections."
)


def record(workload) -> dict:
    refs = {}
    for variant in range(workload.variants):
        inputs = workload.prepare(variant)
        for unit in inputs["units"]:
            for key, _ops, outputs in workload.run_unit(inputs, unit).checks:
                if outputs is None:
                    raise RuntimeError(f"{workload.name} {key} raised while recording")
                refs[key] = outputs
                print(f"{workload.name} {key}", flush=True)
    return refs


def main() -> int:
    data = {"about": ABOUT, "tolerance": {"rtol": suite.RTOL, "atol": suite.ATOL}}
    for name in sorted(suite.WORKLOADS):
        data[name] = record(suite.WORKLOADS[name])
    REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
