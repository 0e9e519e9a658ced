"""Command-line surface: sequence dumps, correlation profiles, phase
optimization reports, analytic SNR tables, BER sweeps, and the four named
experiment presets.

All output is machine-readable (CSV or key=value lines).  CSV headers echo
the package version, a hash of the effective configuration, and every
effective parameter, so reruns with the same seed reproduce identical data
rows.  E/N0 goes on in dB, converted only by ``snr.noise_term``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path


from weylcdma import __version__
from weylcdma.correlation import correlation_profile, cross_bound
from weylcdma.phase_opt import global_solution, objective, kkt_residual, construct_multipliers, verify_optimality_by_sampling
from weylcdma.sequences import (
    AssignmentPolicy,
    FZCParams,
    OptimalWeylParams,
    WeylParams,
    _gold_length,
    fzc_family_sequence,
    gold_code,
    optimal_weyl_sequence,
    weyl_sequence,
)
from weylcdma.sim import _FAMILY_KINDS, SimConfig, SweepRow, family_capacity, sweep
from weylcdma.snr import expected_weyl_snr, snr_lower_bound

DEFAULT_PRESET_TRIALS = 20_000  # sized so 95% intervals resolve the curve orderings
DEFAULT_PRESET_SEED = 1009


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _config_hash(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _emit(lines, out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _csv_lines(params: dict, columns, rows) -> list[str]:
    lines = [f"# weylcdma {__version__}", f"# config={_config_hash(params)}"]
    for key in sorted(params):
        lines.append(f"# {key}={_fmt(params[key])}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return lines


def _parse_r(text: str) -> float | None:
    if text.lower() in ("none", "-inf", "-infinity"):
        return None
    return float(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    if args.family == "weyl":
        seq = weyl_sequence(WeylParams(rho=args.rho, delta=args.delta, n_chips=args.n))
    elif args.family == "fzc":
        seq = fzc_family_sequence(
            FZCParams(m_k=args.mk, p=args.p, q=args.q, r=_parse_r(args.r), n_chips=args.n)
        )
    elif args.family == "optimal":
        kmax = args.kmax if args.kmax is not None else args.n
        seq = optimal_weyl_sequence(
            OptimalWeylParams(gamma=args.gamma, sigma_k=args.sigma, k_max=kmax, n_chips=args.n)
        )
    else:  # gold
        _gold_length(args.n)
        seq = gold_code(args.index)
    params = {"command": "generate", "family": args.family, "tag": seq.family_tag}
    rows = [(i + 1, c.real, c.imag) for i, c in enumerate(seq.chips)]
    _emit(_csv_lines(params, ("n", "re", "im"), rows), args.out)
    return 0


def _cmd_correlate(args) -> int:
    n = args.n
    x = weyl_sequence(WeylParams(rho=args.rho_i, delta=0.0, n_chips=n))
    y = weyl_sequence(WeylParams(rho=args.rho_k, delta=0.0, n_chips=n))
    bound = cross_bound(args.rho_i, args.rho_k)
    profile = correlation_profile(x, y)
    columns = zip(profile.c_values[n - 1:], profile.theta, profile.theta_hat)  # lags 0..N-1
    rows = [(lag, abs(c), abs(t), abs(t_hat), bound) for lag, (c, t, t_hat) in enumerate(columns)]
    params = {
        "command": "correlate",
        "family": "weyl",
        "rho_i": args.rho_i,
        "rho_k": args.rho_k,
        "n": n,
    }
    _emit(_csv_lines(params, ("lag", "abs_c", "abs_theta", "abs_theta_hat", "bound"), rows), args.out)
    return 0


def _cmd_solve(args) -> int:
    solution = global_solution(args.k, args.gamma)
    mults = construct_multipliers(args.k, solution)
    report = verify_optimality_by_sampling(args.k, args.samples, args.seed)
    assign, _ = solution
    lines = [
        f"k={args.k}",
        f"gamma={_fmt(args.gamma)}",
        "rho_star=" + ",".join(_fmt(r) for r in assign.rhos),
        f"objective={_fmt(objective(assign))}",
        f"kkt_residual={_fmt(kkt_residual(solution, mults))}",
        f"samples={report.n_samples}",
        f"sample_seed={report.seed}",
        f"best_sampled_objective={_fmt(report.best_sampled_objective)}",
        f"sampling_shortfall={_fmt(report.shortfall)}",
        f"optimum_beaten={report.optimum_beaten}",
    ]
    _emit(lines, args.out)
    return 0


def _cmd_snr(args) -> int:
    lower = snr_lower_bound(args.k, args.n, args.ebn0_db)
    rows = [
        (s, args.gamma, expected_weyl_snr(s, args.gamma, args.k, args.n, args.ebn0_db), lower)
        for s in range(args.n)
    ]
    params = {
        "command": "snr",
        "n": args.n,
        "k": args.k,
        "gamma": args.gamma,
        "ebn0_db": args.ebn0_db,
    }
    _emit(_csv_lines(params, ("sigma", "gamma", "snr", "lower_bound"), rows), args.out)
    return 0


# SimConfig field -> ber-sweep flag, which is also the field's key in the CSV header
_SWEEP_FLAGS = {"n_users": "k", "n_chips": "n", "ebn0_db": "ebn0_db", "trials": "trials",
                "seed": "seed", "family": "family", "policy": "policy", "gamma": "gamma",
                "k_max": "kmax"}


def _write_sweep(config: SimConfig, axis: str, values, out: str | None, **extra) -> None:
    """Run ``sweep`` and write its rows as CSV, every effective parameter in the header."""
    rows = sweep(config, axis, values)
    params = {
        "command": "ber-sweep",
        "axis": axis,
        "values": ",".join(_fmt(v) for v in values),
        **{flag: getattr(config, field) for field, flag in _SWEEP_FLAGS.items()},
        **extra,
    }
    if params["kmax"] is None:
        params["kmax"] = "auto"
    columns = [f.name for f in dataclasses.fields(SweepRow)]
    _emit(_csv_lines(params, columns, map(dataclasses.astuple, rows)), out)


def _cmd_ber_sweep(args) -> int:
    if not args.values:
        raise ValueError("ber-sweep: --values (flag or config file) must list an axis value")
    try:  # an empty field, as in "2,,4" or "2,4,", is not a number either
        values = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise ValueError(
            f"ber-sweep: --values must be comma-separated numbers, got {args.values!r}") from None
    config = SimConfig(**{field: getattr(args, flag) for field, flag in _SWEEP_FLAGS.items()})
    _write_sweep(config, args.axis, values, args.out)
    return 0


# ---------------------------------------------------------------------------
# Experiment presets
# ---------------------------------------------------------------------------


def _preset_curves(name: str):
    """Axis, values, base-config kwargs, and labeled per-curve overrides."""
    ebn0_axis = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
    if name == "fig1":
        n = 31
        base = dict(n_chips=n, ebn0_db=25.0, gamma=1.0 / (2 * n), policy="random")
        curves = [
            ("gold", dict(family="gold")),
            ("weyl_kmax_n", dict(family="weyl", k_max=n)),
            ("optimal", dict(family="optimal")),
            ("fzc_1_1_1.275", dict(family="fzc")),
        ]
        return "users", tuple(range(2, 32)), base, curves
    if name == "fig2":
        n, k = 31, 7
        base = dict(n_chips=n, n_users=k, policy="random")
        g_n, g_k = 1.0 / (2 * n), 1.0 / (2 * k)
        curves = [
            ("weyl_gamma_1_over_2n", dict(family="weyl", gamma=g_n, k_max=n)),
            ("weyl_gamma_1_over_2k", dict(family="weyl", gamma=g_k, k_max=n)),
            ("optimal_gamma_1_over_2n", dict(family="optimal", gamma=g_n)),
            ("optimal_gamma_1_over_2k", dict(family="optimal", gamma=g_k)),
            ("fzc_1_1_1.275", dict(family="fzc")),
            ("gold", dict(family="gold")),
        ]
        return "ebn0", ebn0_axis, base, curves
    if name == "fig3":
        n = 32
        base = dict(
            n_chips=n, ebn0_db=25.0, gamma=1.0 / (2 * n), family="weyl", k_max=n
        )
        curves = [
            ("weyl_random_sigma", dict(policy="random")),
            ("weyl_vdc_sigma", dict(policy="vdc")),
        ]
        return "users", tuple(range(2, 33)), base, curves
    if name == "fig4":
        n, k = 30, 7
        g_n, g_k = 1.0 / (2 * n), 1.0 / (2 * k)
        base = dict(n_chips=n, n_users=k, policy="random", family="weyl")
        curves = [
            ("weyl_kmax30_gamma_1_over_2n", dict(k_max=30, gamma=g_n)),
            ("weyl_kmax30_gamma_1_over_2k", dict(k_max=30, gamma=g_k)),
            ("weyl_kmax14_gamma_1_over_2n", dict(k_max=14, gamma=g_n)),
            ("weyl_kmax14_gamma_1_over_2k", dict(k_max=14, gamma=g_k)),
            ("optimal", dict(family="optimal", gamma=g_n)),
        ]
        return "ebn0", ebn0_axis, base, curves
    raise KeyError(name)


def run_preset(
    name: str,
    out_dir: str,
    trials: int = DEFAULT_PRESET_TRIALS,
    seed: int = DEFAULT_PRESET_SEED,
) -> list[Path]:
    """Run one named experiment preset; writes one CSV per curve.

    Returns the written paths.  The effective parameters (trial count and
    per-curve seed included) are echoed in every CSV header.
    """
    axis, values, base, curves = _preset_curves(name)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for idx, (label, overrides) in enumerate(curves):
        # placeholders for the swept field (n_users or ebn0_db), echoed in the header
        fields = {"n_users": 2, "ebn0_db": 25.0, **base, **overrides}
        config = SimConfig(**fields, trials=trials, seed=seed + idx)
        curve_values = values
        if axis == "users":
            curve_values = tuple(
                v for v in values if v <= family_capacity(dataclasses.replace(config, n_users=v))
            )
        path = out / f"{name}_{label}.csv"
        _write_sweep(config, axis, curve_values, str(path), preset=name, curve=label)
        written.append(path)
    return written


def _cmd_preset(args) -> int:
    for path in run_preset(args.name, args.out_dir, trials=args.trials, seed=args.seed):
        print(path)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylcdma",
        description="Spreading-sequence toolkit and asynchronous-CDMA BER simulator",
    )
    parser.add_argument("--version", action="version", version=f"weylcdma {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="dump one spreading sequence as CSV")
    g.add_argument("--family", choices=("weyl", "fzc", "optimal", "gold"), required=True)
    g.add_argument("--n", type=int, default=31, help="sequence length")
    g.add_argument("--rho", type=float, default=0.0)
    g.add_argument("--delta", type=float, default=0.0)
    g.add_argument("--mk", type=float, default=1.0)
    g.add_argument("--p", type=float, default=2.0)
    g.add_argument("--q", type=float, default=1.0)
    g.add_argument("--r", default="-inf", help='third exponent; "-inf" or "none" drops the term')
    g.add_argument("--gamma", type=float, default=0.0)
    g.add_argument("--sigma", type=int, default=0)
    g.add_argument("--kmax", type=int, default=None)
    g.add_argument("--index", type=int, default=0)
    _add_out(g)
    g.set_defaults(func=_cmd_generate)

    c = sub.add_parser("correlate", help="per-lag correlation profile of a Weyl pair")
    c.add_argument("--rho-i", dest="rho_i", type=float, required=True)
    c.add_argument("--rho-k", dest="rho_k", type=float, required=True)
    c.add_argument("--n", type=int, required=True)
    _add_out(c)
    c.set_defaults(func=_cmd_correlate)

    s = sub.add_parser("solve", help="closed-form optimal phases with KKT certificate")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--gamma", type=float, default=0.0)
    s.add_argument("--samples", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=0)
    _add_out(s)
    s.set_defaults(func=_cmd_solve)

    r = sub.add_parser("snr", help="analytic per-slot SNR table")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--gamma", type=float, default=0.0)
    r.add_argument("--ebn0-db", dest="ebn0_db", type=float, required=True)
    _add_out(r)
    r.set_defaults(func=_cmd_snr)

    b = sub.add_parser("ber-sweep", help="Monte-Carlo BER sweep over users or E/N0")
    b.add_argument("--config", default=None, help="JSON file supplying any of the flags below")
    b.add_argument("--axis", choices=("users", "ebn0"), default="users")
    b.add_argument("--values", help="comma-separated axis values")
    b.add_argument("--family", choices=_FAMILY_KINDS, default="weyl")
    b.add_argument("--gamma", type=float, default=0.0)
    b.add_argument("--kmax", type=int)
    b.add_argument("--policy", choices=[p.value for p in AssignmentPolicy], default="random")
    b.add_argument("--n", type=int, default=31)
    b.add_argument("--k", type=int, default=4)
    b.add_argument("--ebn0-db", dest="ebn0_db", type=float, default=25.0)
    b.add_argument("--trials", type=int, default=10_000)
    b.add_argument("--seed", type=int, default=0)
    _add_out(b)
    b.set_defaults(func=_cmd_ber_sweep)

    p = sub.add_parser("preset", help="run a named experiment preset (fig1..fig4)")
    p.add_argument("name", choices=("fig1", "fig2", "fig3", "fig4"))
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--trials", type=int, default=DEFAULT_PRESET_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_PRESET_SEED)
    p.set_defaults(func=_cmd_preset)

    return parser


def _config_file_flags(path: str) -> list[str]:
    """ber-sweep flags from a JSON object file as ``--key=value`` tokens; null values are skipped."""
    values = json.loads(Path(path).read_text())
    if not isinstance(values, dict):
        raise ValueError("ber-sweep: the config file must hold a JSON object")
    known = set(vars(build_parser().parse_args(["ber-sweep"]))) - {"command", "config", "func"}
    for key, value in values.items():
        if key not in known:
            raise ValueError(f"ber-sweep: unknown config key {key!r}")
        if isinstance(value, (list, dict)):
            raise ValueError(f"ber-sweep: config key {key!r} must be a single value")
    return [f"--{key.replace('_', '-')}={value}" for key, value in values.items() if value is not None]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.command == "ber-sweep" and args.config:
            # the file's flags go ahead of the command line's, so explicit flags win
            at = argv.index("ber-sweep") + 1
            args = parser.parse_args(argv[:at] + _config_file_flags(args.config) + argv[at:])
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
