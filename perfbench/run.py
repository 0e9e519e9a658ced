"""weylcdma benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S     # every workload, one table

Run from a checkout: the program is imported from ``src/`` next to this
directory.  One pass of a workload is a fixed amount of program work
(see ``workloads.py``); passes repeat until ``--seconds`` of passes have
been measured, and every pass's outputs are checked.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, each a median over the run:
``wall_s`` (one pass), ``decisions_per_s`` (decisions delivered per
second; checks per second on ``analytic``), ``peak_rss_mb`` and
``setup_s`` (time from process start until a pass can begin, measured in
fresh processes run between the passes).  ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times, counts,
shares of ``wall_s`` and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fig_users", "fig_ebn0", "analytic")
DEFAULT_SEED = 0
SETUP_PROBES = 15  # fresh processes timed for setup_s; the median is reported
PROGRAM_THREADS = "1"  # WEYLCDMA_THREADS for every pass, whatever the caller's environment

END_TO_END_UNITS = {"wall_s": "s", "decisions_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics of the traced run (name -> unit).
SELF_TIMED = (
    "cli.run_preset",
    "sim.sweep",
    "sim.run_ber",
    "sim.build_pool",
    "sequences",
    "correlation.aperiodic_table",
    "correlation.r_ik",
    "correlation.correlation_profile",
    "snr.pursley_snr",
    "phase_opt.kkt",
    "phase_opt.sampling",
)
COUNTED = ("correlation.aperiodic_c.calls", "sim.decisions", "phase_opt.samples")
LAYERS = ("cli", "sim", "sequences", "correlation", "snr", "phase_opt")
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in SELF_TIMED},
    **{name: "count" for name in COUNTED},
    "cli.csv_bytes": "bytes",
    "sim.run_ber.decisions_per_s": "1/s",
    **{f"share.{layer}": "frac" for layer in LAYERS},
    "share.other": "frac",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def setup(name: str, seed: int):
    """Import the program from this checkout and make the workload's inputs."""
    if not (SRC / "weylcdma" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import weylcdma

    if SRC.resolve() not in Path(weylcdma.__file__).resolve().parents:
        raise SystemExit(f"run.py: imported weylcdma from {weylcdma.__file__}, not {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name]
    return workloads, workload, workload.make_inputs(seed), workloads.load_reference()


class SetupProbes:
    """Fresh processes that start, set up and exit, timed for ``setup_s``.

    The probes are spread over the run, between passes, so that a change in
    the machine's speed during the run falls on them as on the passes.
    """

    def __init__(self, name: str, seed: int, seconds: float) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--setup-only"]
        self.seconds = seconds
        self.times: list[float] = []

    def probe(self) -> None:
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which would quantise the measurement.
        subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.times.append(time.perf_counter() - start)

    def keep_pace(self, measured: float) -> None:
        """Run the probes that are due once ``measured`` seconds of passes are done."""
        due = min(SETUP_PROBES, round(SETUP_PROBES * measured / self.seconds))
        while len(self.times) < due:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def run_passes(workloads, workload, inputs, reference, workdir: Path, seconds: float,
               pass_context=lambda index: contextlib.nullcontext(),
               after_pass=lambda measured: None):
    """Repeat passes for ``seconds``; returns (walls, outcomes).

    At least two passes run, and no pass starts that would likely end past
    ``seconds`` of measured passes.  Pass ``i`` runs inside
    ``pass_context(i)``; only the pass itself is timed.  ``after_pass`` gets
    the seconds measured so far.
    """
    walls, outcomes = [], []
    while len(walls) < 2 or sum(walls) + statistics.median(walls) <= seconds:
        with pass_context(len(walls)):
            start = time.perf_counter()
            try:
                output = workload.run_pass(inputs, workdir)
            except Exception:  # the pass failed as a whole; keep measuring the others
                traceback.print_exc()
                output = None
            walls.append(time.perf_counter() - start)
        if output is None:
            outcomes.append(workloads.Outcome(attempted=1, failed=1, decisions=0))
        else:
            outcomes.append(workload.check(inputs, output, reference))
        after_pass(sum(walls))
    return walls, outcomes


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # a plain checkout, perhaps inside another repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(name: str, seed: int, inputs: dict, passes: int) -> dict:
    import numpy

    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "weylcdma").glob("*.py"))
    return {
        "workload": name,
        "seed": seed,
        "inputs": {k: inputs[k] for k in ("presets", "trials", "seed") if k in inputs},
        "passes": passes,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "WEYLCDMA_THREADS": os.environ.get("WEYLCDMA_THREADS"),
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def layer_metrics(tracer, traced_walls, plain_walls, outcomes) -> dict:
    passes = len(traced_walls)
    self_s, calls = tracer.self_times()
    wall = statistics.median(traced_walls)
    values = {}
    for name in SELF_TIMED:
        values[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
        values[f"{name}.calls"] = calls.get(name, 0) / passes
    for name in COUNTED:
        values[name] = tracer.counts.get(name, 0) / passes
    values["cli.csv_bytes"] = sum(o.csv_bytes for o in outcomes) / passes
    run_ber_s = values["sim.run_ber.self_s"]
    values["sim.run_ber.decisions_per_s"] = values["sim.decisions"] / run_ber_s if run_ber_s else 0.0
    total = sum(traced_walls)
    attributed = 0.0
    for layer in LAYERS:
        layer_s = sum(s for n, s in self_s.items() if n.split(".")[0] == layer)
        values[f"share.{layer}"] = layer_s / total
        attributed += layer_s
    values["share.other"] = 1.0 - attributed / total
    values["trace.wall_s"] = wall
    values["trace.overhead_s"] = wall - statistics.median(plain_walls)
    return values


def run_one(args) -> int:
    workloads, workload, inputs, reference = setup(args.workload, args.seed)
    if args.setup_only:
        return 0
    os.environ["WEYLCDMA_THREADS"] = PROGRAM_THREADS
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from spans import Tracer, traced

            # Odd passes are traced and even ones are not, so drift in the
            # machine's speed falls on both halves alike.
            tracer = Tracer()

            def pass_context(index):
                tracer.run_id = index
                return traced(tracer) if index % 2 else contextlib.nullcontext()

            walls, outcomes = run_passes(
                workloads, workload, inputs, reference, workdir, args.seconds, pass_context
            )
            values = layer_metrics(tracer, walls[1::2], walls[0::2], outcomes[1::2])
            units = PER_LAYER_UNITS
            tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            probes = SetupProbes(args.workload, args.seed, args.seconds)
            walls, outcomes = run_passes(workloads, workload, inputs, reference, workdir,
                                         args.seconds, after_pass=probes.keep_pace)
            values = {
                "wall_s": statistics.median(walls),
                "decisions_per_s": statistics.median(
                    o.decisions / w for o, w in zip(outcomes, walls)
                ),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": probes.median(),
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    worst_z = max(o.worst_z for o in outcomes)
    summary = " ".join(f"{k}={v:.6g} {units[k]}" for k, v in values.items())
    print(f"{args.workload} seed={args.seed} passes={len(walls)} {summary} "
          f"failed_frac={failed / attempted:.6g} ({failed}/{attempted}) worst_band_z={worst_z:.3f}")
    print(json.dumps({"meta": metadata(args.workload, args.seed, inputs, len(walls))}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(lines[0])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
