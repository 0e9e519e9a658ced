"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads fig_users,analytic]
        [--label NAME --out perfbench/trajectory.json]

For every workload, runs ``run.py --trace 0`` once per seed and reports
each end-to-end metric's median, quartiles and spread (quartile distance
over the median, as ``statistics.quantiles(values, n=4)`` gives it) next to
its bound in ``BENCHMARK.json``.  With ``--out``, also makes one traced run
per workload (first seed) and appends the whole summary, with the run
metadata, as one point to the trajectory file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    print(lines[0], flush=True)
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [bench(workload, seed, args.seconds, 0) for seed in args.seeds]
        point["meta"] = {k: v for k, v in runs[0][0].items()
                         if k not in ("workload", "seed", "inputs", "passes")}
        results = [r for _, r in runs]
        entry = {
            "passes": [meta["passes"] for meta, _ in runs],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results], bound)
            entry["end_to_end"][name] = stats
            steady = stats["spread"] < bound / 3
            ok &= steady
            print(f"  {workload} {name}: median {stats['median']:.6g} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                  f"bound {bound} {'steady' if steady else 'NOT STEADY'}", flush=True)
        ok &= entry["failed"] == 0
        if args.out is not None:
            _, traced = bench(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][workload] = entry

    if args.out is not None:
        trajectory = json.loads(args.out.read_text()) if args.out.exists() else []
        trajectory.append(point)
        args.out.write_text(json.dumps(trajectory, indent=1) + "\n")
    print("collect:", "steady" if ok else "NOT steady or failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
