"""Compute the reference BER of every Monte-Carlo point the benchmark checks.

    python3 perfbench/make_reference.py            # rewrites perfbench/reference.json

Each point is simulated at many times the benchmark's trial count, from
seeds of 2**32 and above, which no benchmark seed maps to.  Run it again
only when the workloads' configurations change; a change of the program's
random-number layout needs no new reference, because the check is
statistical.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from weylcdma import cli  # noqa: E402

import workloads as wl  # noqa: E402

REFERENCE_SEED = 2**32 + 20_161_602
TRIALS = {"fig_users": 40_000, "fig_ebn0": 200_000}


def format_reference(points: dict) -> str:
    """JSON with one line per point: {"seed", "trials", "points": {key: [errors, bits]}}."""
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(list(v))}" for k, v in sorted(points.items()))
    head = f'{{"seed": {REFERENCE_SEED}, "trials": {json.dumps(TRIALS)},\n "points": {{\n'
    return head + rows + "\n }\n}\n"


def main() -> int:
    os.environ["WEYLCDMA_THREADS"] = str(os.cpu_count() or 1)
    points = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, trials in TRIALS.items():
            for preset in wl.WORKLOADS[name].make_inputs(0)["presets"]:
                paths = cli.run_preset(preset, tmp, trials=trials, seed=REFERENCE_SEED)
                points.update(wl.preset_points(paths))
                print(f"{preset}: {len(paths)} curves", file=sys.stderr)
    wl.REFERENCE_PATH.write_text(format_reference(points))
    print(f"wrote {len(points)} points to {wl.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
