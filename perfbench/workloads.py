"""Benchmark workloads: inputs made from a seed, one timed pass, and checks.

Each workload is a ``Workload``: ``make_inputs(seed)`` draws the inputs the
program receives (preset seed, trial count, configuration), ``run_pass``
does one fixed amount of program work on them, and ``check`` compares the
pass's outputs against independent references.  Only ``run_pass`` is timed.

Program entry points are looked up as module attributes at call time
(``cli.run_preset``, ``correlation.r_ik``, ``snr.pursley_snr``, ...), so the
traced run can rebind them from outside ``src/``.

Monte-Carlo points are checked statistically: the error count of a point
must lie inside a binomial band around a reference BER stored in
``reference.json``, which ``make_reference.py`` computed once at a much
higher trial count and from a seed no benchmark seed maps to.  A declared
change of the random-number layout still passes; a wrong interference
term does not.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from weylcdma import cli, correlation, phase_opt, snr
from weylcdma.sequences import OptimalWeylParams, optimal_weyl_sequence

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Binomial band: |errors - expected| <= Z_BAND * sd + 1, with the variance
# inflated by DESIGN_EFFECT for the correlation of decisions within a trial
# (measured at 1.01-1.09) and by the reference's own sampling variance.
Z_BAND = 5.0
DESIGN_EFFECT = 2.0

FIG_USERS_TRIALS = 2_500  # not the default 20,000: a run must hold two passes
FIG_EBN0_TRIALS = 20_000  # the presets' default


def preset_seed(seed: int) -> int:
    """Program seed for benchmark seed ``seed``: a 32-bit value.

    References use seeds of 2**32 and above, so no benchmark seed can
    reproduce the reference draws.
    """
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


@dataclass(frozen=True)
class Outcome:
    """Checked result of one pass."""

    attempted: int
    failed: int
    decisions: int  # delivered decisions (trials x K summed over BER points)
    worst_z: float = 0.0  # largest |errors - expected| / sd over BER points
    csv_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], dict]
    run_pass: Callable[[dict, Path], object]
    check: Callable[[dict, object, dict], Outcome]


# ---------------------------------------------------------------------------
# Monte-Carlo checks
# ---------------------------------------------------------------------------


def band_z(errors: int, bits: int, ref_errors: int, ref_bits: int) -> float:
    """Distance of ``errors`` from the reference rate, in band units (pass <= 1)."""
    expected = bits * ref_errors / ref_bits
    p = (ref_errors + 1) / (ref_bits + 2)  # smoothed: a zero-error reference keeps a band
    sd = math.sqrt(DESIGN_EFFECT * bits * p * (1.0 - p) * (1.0 + bits / ref_bits))
    return (abs(errors - expected) - 1.0) / (Z_BAND * sd)


def read_sweep_csv(path: Path) -> tuple[dict, list[dict]]:
    """Header parameters and data rows of one preset CSV."""
    params = {}
    with open(path, newline="") as fh:
        body = []
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                params[key] = value
            else:
                body.append(line)
    rows = list(csv.DictReader(body))
    return params, rows


def point_key(params: dict, axis_value: str) -> str:
    return f"{params['preset']}/{params['curve']}/{axis_value}"


def preset_points(paths) -> dict[str, tuple[int, int]]:
    """(errors, bits) per BER point of the given preset CSVs."""
    points = {}
    for path in paths:
        params, rows = read_sweep_csv(path)
        for row in rows:
            bits = int(row["bits"])
            points[point_key(params, row["axis_value"])] = (
                round(float(row["mean_ber"]) * bits),
                bits,
            )
    return points


def check_points(points: dict, reference: dict, prefixes) -> Outcome:
    """Compare measured points with every reference point under ``prefixes``.

    A reference point missing from the output counts as failed, so a pass
    that drops a curve cannot pass.
    """
    expected = {k: v for k, v in reference["points"].items() if k.split("/")[0] in prefixes}
    keys = set(expected) | set(points)  # a point no reference covers fails too
    failed = 0
    worst = 0.0
    decisions = 0
    for key in keys:
        if key not in points or key not in expected:
            failed += 1
            continue
        errors, bits = points[key]
        decisions += bits
        z = band_z(errors, bits, *expected[key])
        worst = max(worst, z)
        failed += z > 1.0
    return Outcome(attempted=len(keys), failed=failed, decisions=decisions, worst_z=worst)


# ---------------------------------------------------------------------------
# Preset workloads (fig_users, fig_ebn0)
# ---------------------------------------------------------------------------


def _preset_inputs(presets, trials):
    def make(seed: int) -> dict:
        return {"presets": presets, "trials": trials, "seed": preset_seed(seed)}

    return make


def run_presets(inputs: dict, workdir: Path) -> list[Path]:
    paths = []
    for name in inputs["presets"]:
        paths += cli.run_preset(name, str(workdir), trials=inputs["trials"], seed=inputs["seed"])
    return paths


def check_presets(inputs: dict, paths, reference: dict) -> Outcome:
    out = check_points(preset_points(paths), reference, inputs["presets"])
    csv_bytes = sum(p.stat().st_size for p in paths)
    return Outcome(out.attempted, out.failed, out.decisions, out.worst_z, csv_bytes)


# ---------------------------------------------------------------------------
# analytic: SNR, correlations, KKT certificates, sampling falsifier
# ---------------------------------------------------------------------------

# Full-slot Weyl families, every user.  N = 63 is left out: pursley_snr's
# per-lag r_ik loop is interpreter-bound, and such code slows two to three
# times more than numpy-bound code when the host is busy, so at N = 63 it
# made up 70 % of a pass and the run-to-run spread reached the bound.
SNR_FAMILIES = (31,)
R_IK_PAIRS = 48
PROFILE_PAIRS = 16
CSC2_VALUES = 64
KKT_USERS = range(2, 41)
SAMPLING_USERS = range(2, 21)
SAMPLES = 10_000


def _weyl_family(gamma: float, n: int, slots) -> list[np.ndarray]:
    return [optimal_weyl_sequence(OptimalWeylParams(gamma, int(s), n, n)).chips for s in slots]


def analytic_inputs(seed: int) -> dict:
    rng_seed = preset_seed(seed)
    rng = np.random.default_rng(rng_seed)
    snr_cases = [
        {"n": n, "gamma": float(rng.random()) / n, "perm": rng.permutation(n).tolist()}
        for n in SNR_FAMILIES
    ]
    pairs = []
    for _ in range(R_IK_PAIRS):
        n = int(rng.integers(8, 128))
        si, sk = (int(v) for v in rng.choice(n, size=2, replace=False))
        pairs.append({"n": n, "si": si, "sk": sk, "gamma": float(rng.random())})
    profiles = []
    for _ in range(PROFILE_PAIRS):
        n = int(rng.integers(16, 97))
        si, sk = (int(v) for v in rng.choice(n, size=2, replace=False))
        profiles.append({"n": n, "si": si, "sk": sk, "gamma": 0.0})
    return {
        "seed": rng_seed,
        "snr": snr_cases,
        "r_ik": pairs,
        "profiles": profiles,
        "csc2": [int(v) for v in rng.integers(2, 1025, size=CSC2_VALUES)],
        "kkt": [(k, float(rng.random())) for k in KKT_USERS],
        "sampling": [(k, int(rng.integers(0, 2**31))) for k in SAMPLING_USERS],
    }


def _attempt(results: list, kind: str, case, fn, *args) -> None:
    """Run one analytic operation; an exception is its result (and a failure)."""
    try:
        results.append((kind, case, fn(*args)))
    except Exception as exc:  # an operation that raises counts as failed
        results.append((kind, case, exc))


def _kkt(k: int, gamma: float) -> float:
    solution = phase_opt.global_solution(k, gamma)
    return phase_opt.kkt_residual(solution, phase_opt.construct_multipliers(k, solution))


def run_analytic(inputs: dict, _workdir: Path) -> list:
    results = []
    for case in inputs["snr"]:
        n = case["n"]
        codes = _weyl_family(case["gamma"], n, case["perm"])
        budget = snr.LinkBudget.from_db(25.0, n, n)
        for i in range(n):
            _attempt(results, "pursley", (case, i), snr.pursley_snr, i, codes, budget)
    for case in inputs["r_ik"]:
        x, y = _weyl_family(case["gamma"], case["n"], (case["si"], case["sk"]))
        _attempt(results, "r_ik", case, correlation.r_ik, x, y)
    for case in inputs["profiles"]:
        x, y = _weyl_family(case["gamma"], case["n"], (case["si"], case["sk"]))
        _attempt(results, "profile", case, correlation.correlation_profile, x, y)
    for n in inputs["csc2"]:
        _attempt(results, "csc2", n, snr.csc2_sum, n)
    for k, gamma in inputs["kkt"]:
        _attempt(results, "kkt", k, _kkt, k, gamma)
    for k, seed in inputs["sampling"]:
        _attempt(results, "sampling", k, phase_opt.verify_optimality_by_sampling, k, SAMPLES, seed)
    return results


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def equispaced_objective(k: int) -> float:
    """Objective of K equispaced phases: (K/2) * sum_{m=1}^{K-1} csc(pi m / K)."""
    return 0.5 * k * sum(1.0 / math.sin(math.pi * m / k) for m in range(1, k))


def analytic_ok(kind: str, case, value) -> bool:
    """Independent oracle for one analytic operation."""
    if isinstance(value, Exception):
        return False
    if kind == "pursley":
        snr_case, i = case
        n = snr_case["n"]
        budget = snr.LinkBudget.from_db(25.0, n, n)
        slot = snr_case["perm"][i]
        return _rel(value, snr.expected_weyl_snr(slot, snr_case["gamma"], n, n, budget)) < 1e-9
    if kind == "r_ik":
        closed = snr.r_ik_closed(case["si"], case["sk"], case["gamma"], case["n"])
        return _rel(value, closed) < 1e-8
    if kind == "profile":
        # Distinct full-slot Weyl codes at gamma = 0: zero periodic
        # crosscorrelation, and every partial correlation within the
        # 1/sin(pi d) bound.
        n = case["n"]
        rho_i = (case["gamma"] + case["si"] / n) % 1.0
        rho_k = (case["gamma"] + case["sk"] / n) % 1.0
        bound = correlation.cross_bound(rho_i, rho_k)
        return (
            float(np.max(np.abs(value.theta))) < 1e-9
            and float(np.max(np.abs(value.c_values))) <= bound + 1e-9
        )
    if kind == "csc2":
        target = (case * case - 1) / 3.0
        return _rel(value, target) < 1e-12
    if kind == "kkt":
        return value < 1e-9
    if kind == "sampling":
        oracle = equispaced_objective(case)
        return (
            _rel(value.optimal_objective, oracle) < 1e-12
            and not value.optimum_beaten
            and value.best_sampled_objective >= oracle - 1e-9
        )
    raise ValueError(f"unknown analytic operation {kind!r}")


def check_analytic(_inputs: dict, results, _reference: dict) -> Outcome:
    failed = sum(not analytic_ok(kind, case, value) for kind, case, value in results)
    return Outcome(attempted=len(results), failed=failed, decisions=len(results))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig_users",
            _preset_inputs(("fig1", "fig3"), FIG_USERS_TRIALS),
            run_presets,
            check_presets,
        ),
        Workload(
            "fig_ebn0",
            _preset_inputs(("fig2", "fig4"), FIG_EBN0_TRIALS),
            run_presets,
            check_presets,
        ),
        Workload("analytic", analytic_inputs, run_analytic, check_analytic),
    )
}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
