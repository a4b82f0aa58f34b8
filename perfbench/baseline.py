"""Runs every workload, untraced and traced, and prints one table.

    python3 perfbench/baseline.py [--seed 1] [--seconds 45] [--out FILE]

Prints every end-to-end metric by name and unit for each workload, with
error_rate and the failed operations, then the per-layer metrics of the
traced runs. With --out the numbers are also written as JSON, together with
each run's record (versions, machine, inputs), for later changes to quote
their deltas against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, WORKLOAD_NAMES  # noqa: E402
from layers import PER_LAYER  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    record_path = Path(".perfbench_run") / f"{workload}.seed{seed}.trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return result, record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    out = {}
    for w in WORKLOAD_NAMES:
        untraced, rec0 = _run(w, args.seed, args.seconds, 0)
        traced, rec1 = _run(w, args.seed, args.seconds, 1)
        failed = [(op["name"], op["error"]) for rec in (rec0, rec1) for op in rec["ops"] if op["error"]]
        out[w] = {
            "end_to_end": {k: v["value"] for k, v in untraced["metrics"].items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": failed,
            "notes": {"untraced": rec0["notes"], "traced": rec1["notes"]},
            "record": {k: v for k, v in rec0.items() if k not in ("ops", "metrics", "notes")},
        }

    width = max(len(n) for n in list(END_TO_END) + list(PER_LAYER))
    cols = "".join(f"{w:>18s}" for w in WORKLOAD_NAMES)
    print(f"{'metric':<{width}s} {'unit':<6s}{cols}")
    for name, unit in list(END_TO_END.items()):
        print(f"{name:<{width}s} {unit:<6s}" + "".join(f"{out[w]['end_to_end'][name]:>18.6g}" for w in WORKLOAD_NAMES))
    print(f"{'error_rate':<{width}s} {'ratio':<6s}"
          + "".join(f"{len(out[w]['failed']) / out[w]['attempted']:>18.6g}" for w in WORKLOAD_NAMES))
    print()
    for name, unit in PER_LAYER.items():
        print(f"{name:<{width}s} {unit:<6s}" + "".join(f"{out[w]['per_layer'][name]:>18.6g}" for w in WORKLOAD_NAMES))
    for w in WORKLOAD_NAMES:
        for name, err in out[w]["failed"]:
            print(f"FAILED {w}: {name}: {err}")
    if args.out:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "workloads": out},
                                             indent=1) + "\n", encoding="utf-8")
    return 0 if not any(out[w]["failed"] for w in WORKLOAD_NAMES) else 1


if __name__ == "__main__":
    sys.exit(main())
