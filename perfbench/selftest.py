"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Shows that every workload passes its checks on two seeds, that
deliberately corrupted results are counted as failed (a wrong
multiple-access-interference term, a wrong interference moment, an edited
CSV row, a missing curve), and that ``BENCHMARK.json`` names exactly the
metrics ``run.py`` prints.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

import run

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


@contextlib.contextmanager
def rebound(module, attr, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def one_pass(wl, name: str, seed: int, workdir: Path, edit=None):
    workload = wl.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    output = workload.run_pass(inputs, workdir)
    if edit is not None:
        output = edit(output)
    return workload.check(inputs, output, wl.load_reference())


def scale_ber(paths, csv_name: str, axis_value: str, factor: float):
    """Multiply one row's BER in one preset CSV by ``factor``."""
    path = next(p for p in paths if p.name == csv_name)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == axis_value:
            fields[5] = repr(float(fields[5]) * factor)
            lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return paths


def main() -> int:
    wl, _, _, _ = run.setup("fig_users", 0)
    os.environ["WEYLCDMA_THREADS"] = run.PROGRAM_THREADS
    from weylcdma import correlation, sim, snr

    workdir = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    try:
        for name in run.WORKLOAD_NAMES:
            for seed in (1, 2):
                out = one_pass(wl, name, seed, workdir)
                expect(out.failed == 0, f"{name} seed {seed}: {out.failed}/{out.attempted} failed")

        wrong_mai = lambda table: lambda pool: 1.1 * table(pool)  # noqa: E731
        with rebound(sim, "aperiodic_table", wrong_mai):
            out = one_pass(wl, "fig_users", 1, workdir)
            expect(out.failed > 0, f"fig_users, MAI scaled by 1.1: {out.failed}/{out.attempted} failed")

        wrong_r = lambda r_ik: lambda x, y: r_ik(x, y) * (1 + 1e-6)  # noqa: E731
        with rebound(snr, "r_ik", wrong_r), rebound(correlation, "r_ik", wrong_r):
            out = one_pass(wl, "analytic", 1, workdir)
            expect(out.failed > 0, f"analytic, r_ik off by 1e-6: {out.failed}/{out.attempted} failed")

        edit = lambda paths: scale_ber(paths, "fig1_gold.csv", "31", 1.5)  # noqa: E731
        out = one_pass(wl, "fig_users", 1, workdir, edit)
        expect(out.failed == 1, f"fig_users, one BER edited: {out.failed}/{out.attempted} failed")

        drop = lambda paths: [p for p in paths if p.name != "fig2_gold.csv"]  # noqa: E731
        out = one_pass(wl, "fig_ebn0", 1, workdir, drop)
        expect(out.failed == 6, f"fig_ebn0, one curve missing: {out.failed}/{out.attempted} failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end names and units match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer names and units match run.py")
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES),
           "BENCHMARK.json workloads match run.py")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
