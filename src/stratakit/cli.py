"""Command-line front end: verification suites and machine-readable reports.

Subcommands
-----------
coeffs      dual-route coefficient table checks (recurrence vs generating
            function), Bernoulli head identity, growth scan
verify      operator-identity suite: localizer brackets, localized-power
            brackets, delta extraction, gamma expansion, Stirling identity
classify    stratum label for one covector (exact for rational inputs)
flow        spiral Hamilton trajectory with conservation monitors
cutoff      band-family derivative bound checks and the product-rate bound
report-all  every suite with defaults, one JSON file per section

Reports are JSON (CSV for trajectories and cutoff samples), written
atomically (temp file + rename).  Exit codes: 0 all requested checks pass,
1 a verification failed (the report is still written), 2 invalid
configuration.  The environment variable STRATAKIT_REPORT_DIR redirects
relative output paths.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from . import cutoff as cutoff_mod
from . import exactalg, geometry, localize

REPORT_DIR_ENV = "STRATAKIT_REPORT_DIR"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return exactalg.fmt_fraction(obj)
    if isinstance(obj, geometry.StratumLabel):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _resolve_output(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    env_dir = os.environ.get(REPORT_DIR_ENV)
    if env_dir and not p.is_absolute():
        p = Path(env_dir) / p
    return p


def _write_atomic(path: Path, text: str) -> None:
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            _unwritable(path, exc)
        raise


def _unwritable(path: Path, exc: OSError) -> None:
    """An unwritable path is bad configuration, not a failed check: exit 2."""
    sys.stderr.write(f"stratakit: error: cannot write {path}: {exc.strerror}\n")
    raise SystemExit(2) from None


def _check_writable_dir(path: Path) -> None:
    """Create ``path`` and write a scratch file in it, before any work is done."""
    try:
        path.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=path).close()
    except OSError as exc:
        _unwritable(path, exc)


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(_jsonable(report), indent=2) + "\n"
    path = _resolve_output(output)
    if path is None:
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def _parse_number(text: str):
    """Exact Fraction when the literal allows it, float otherwise."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"division by zero in {text!r}") from None
    except ValueError:
        return float(text)


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        msg = f"expected a comma list of integers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None
    if not ks:
        raise argparse.ArgumentTypeError("expected at least one model degree")
    return ks


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return tuple(_parse_number(p.strip()) for p in parts)


def _parse_float_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return tuple(float(p) for p in parts)


# -- section runners -----------------------------------------------------------


def run_coeffs(jmax: int, table_out: str | None = None) -> dict:
    recurrence = exactalg.a_table_recurrence(jmax)
    generating = exactalg.a_table_generating(jmax)
    agree = all(
        recurrence.entry(j, jp) == generating.entry(j, jp)
        for j in range(jmax + 1)
        for jp in range(j + 1)
    )
    recurrence.check_recurrence()
    m = min(jmax, 20)
    bern = exactalg.bernoulli_generator(m)
    inverse = exactalg.matrix_inverse_coeffs(m)
    bern_match = list(bern.coefficients) == inverse
    scan = localize.bound_scan_a(max(jmax, 2), table=recurrence)
    report = {
        "suite": "coefficient-tables",
        "jmax": jmax,
        "dual_route_agree": agree,
        "bernoulli_head": [exactalg.fmt_fraction(c) for c in inverse[:4]],
        "bernoulli_identity": bern_match,
        "growth_scan": scan,
        "pass": agree and bern_match and scan["pass"],
    }
    if table_out:
        _write_atomic(
            _resolve_output(table_out), exactalg.coeff_table_to_json(recurrence) + "\n"
        )
        report["table_file"] = table_out
    return report


def run_verify(k: int, jmax: int, pmax: int, delta_convention_check: str = "none") -> dict:
    table = exactalg.a_table_recurrence(max(jmax, pmax, 2))
    checks = [
        localize.verify_localizer_bracket(jmax, k, table),
        localize.verify_x2_bracket(pmax, k, table),
        localize.extract_delta(pmax, k, table),
        localize.verify_gamma_expansion(jmax, k, table),
        localize.verify_stirling_identity(min(jmax + 3, 15)),
        localize.bound_scan_a(max(jmax, 2), table),
    ]
    ok = all(c["pass"] for c in checks)
    report = {
        "suite": "operator-identities",
        "k": k,
        "jmax": jmax,
        "pmax": pmax,
        "checks": checks,
        "reversed_bracket": "[M, X2] = +t^k R = -[X2, M]",
        "pass": ok,
    }
    if delta_convention_check != "none":
        delta_report = checks[2]
        matched = delta_report["convention_comparison"][delta_convention_check]["matches"]
        report["delta_convention_check"] = {
            "convention": delta_convention_check,
            "matches": matched,
        }
        report["pass"] = ok and matched
    return report


def run_classify(args) -> tuple[dict, geometry.StratumLabel]:
    params = _model_params(args)
    cov = geometry.Covector(t=args.t, x=args.x, tau=args.tau, xi=args.xi)
    label, flags = geometry.classify_detailed(cov, params, tol=args.tol)
    report = {
        "suite": "classification",
        "variant": params.variant,
        "k": params.k,
        "point": {
            "t": str(args.t),
            "x": [str(v) for v in args.x],
            "tau": str(args.tau),
            "xi": [str(v) for v in args.xi],
        },
        "label": label.value,
        "flags": flags,
        "pass": True,
    }
    return report, label


def run_geometry_suite(k: int, seed: int, samples: int = 100) -> dict:
    rng = random.Random(seed)
    closed = geometry.ModelParams(variant="closed", k=k)
    sigma1_ok = sigma2_ok = 0
    for _ in range(samples):
        p1 = geometry.sample_sigma1(rng, closed)
        if not geometry.symplectic_rank(geometry.StratumLabel.SIGMA1, p1, closed)["degenerate"]:
            sigma1_ok += 1
        p2 = geometry.sample_sigma2(rng, closed)
        if geometry.symplectic_rank(geometry.StratumLabel.SIGMA2, p2, closed)["degenerate"]:
            sigma2_ok += 1
    report = {
        "suite": "symplectic-dichotomy",
        "k": k,
        "seed": seed,
        "samples": samples,
        "sigma1_nondegenerate": sigma1_ok,
        "sigma2_degenerate": sigma2_ok,
        "arithmetic": "exact-rational",
        "pass": sigma1_ok == samples and sigma2_ok == samples,
    }
    return report


def run_flow(params: geometry.ModelParams, x0, xi0, t_end, h, richardson_tol,
             drift_tol: float, closed_form_tol: float, csv_out: str | None) -> dict:
    s0 = geometry.make_flow_state(x0, xi0, params)
    traj = geometry.integrate(s0, params, t_end=t_end, h=h, richardson_tol=richardson_tol)
    try:
        fit = geometry.log_spiral_fit(traj)
    except ValueError:
        fit = None
    ok = (
        traj.drift_x_xi <= drift_tol
        and traj.drift_x_A_xi <= drift_tol
        and traj.xi_closed_form_max_rel_dev <= closed_form_tol
        and traj.norm_x_monotone
        and traj.max_norm_x <= params.b + 1e-9
    )
    report = {
        "suite": "hamilton-flow",
        "params": {"k": params.k, "mu": float(params.mu), "a": params.a, "b": params.b},
        "x0": list(s0.x),
        "xi0": list(s0.xi),
        "t_end": t_end,
        "h": h,
        "initial_monitors": s0.monitors,
        "drift_x_xi": traj.drift_x_xi,
        "drift_x_A_xi": traj.drift_x_A_xi,
        "xi_closed_form_max_rel_dev": traj.xi_closed_form_max_rel_dev,
        "norm_x_monotone": traj.norm_x_monotone,
        "max_norm_x": traj.max_norm_x,
        "state_frozen_from": traj.state_frozen_from,
        "log_spiral_fit": fit,
        "thresholds": {"drift": drift_tol, "closed_form_rel": closed_form_tol},
        "pass": ok,
    }
    if csv_out:
        buf = io.StringIO()
        geometry.write_trajectory_csv(traj, buf)
        _write_atomic(_resolve_output(csv_out), buf.getvalue())
        report["trajectory_file"] = csv_out
    return report


def run_cutoff(r1, r2, n: int, kmax: int, grid: bool, samples_out: str | None) -> dict:
    family = cutoff_mod.build_bands(r1, r2, n)
    if grid:
        n_values = [4]
        while n_values[-1] < n:
            n_values.append(n_values[-1] * 4)
        n_values[-1] = min(n_values[-1], n)
        body = cutoff_mod.bound_check_grid(r1, r2, n_values, kmax=kmax)
    else:
        checks = [
            cutoff_mod.derivative_bound_check(cutoff_mod.build_cutoff(family, k))
            for k in range(1, min(kmax, family.levels) + 1)
        ]
        cs = [c["C_measured"] for c in checks]
        body = {
            "bands": checks,
            "C_uniform": max(cs),
            "pass": all(c["pass"] for c in checks),
        }
    c_measured = body["C_uniform"]
    rate_curve = {
        f"2^{e}": cutoff_mod.recursion_product(1 << e, c_measured)["per_N_rate"]
        for e in (10, 11, 12, 13, 14)
    }
    cauchy_gap = abs(rate_curve["2^14"] - rate_curve["2^13"])
    report = {
        "suite": "cutoff-bounds",
        "N": n,
        "band_gaps": [exactalg.fmt_fraction(b.d) for b in family.bands],
        "budgets": [b.budget for b in family.bands],
        "bound_check": body,
        "recursion_rate": {
            "C": c_measured,
            "per_N_rate": rate_curve,
            "doubling_cauchy_gap": cauchy_gap,
        },
        "pass": body["pass"] and cauchy_gap <= 1e-3,
    }
    if samples_out:
        buf = io.StringIO()
        cutoff_mod.write_cutoff_samples_csv(cutoff_mod.build_cutoff(family, 1), buf)
        _write_atomic(_resolve_output(samples_out), buf.getvalue())
        report["samples_file"] = samples_out
    return report


# -- argument plumbing -----------------------------------------------------------


def _model_params(args) -> geometry.ModelParams:
    if args.variant == "spiral":
        return geometry.ModelParams(
            variant="spiral", k=args.k, mu=args.mu, a=args.a, b=args.b
        )
    return geometry.ModelParams(variant="closed", k=args.k)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratakit",
        description="verification suites for the degenerate sum-of-squares model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="dual-route coefficient table verification")
    p.add_argument("--jmax", type=int, default=40)
    p.add_argument("--table-out", help="also serialize the table to this JSON file")
    p.add_argument("-o", "--output", help="report file (stdout when omitted)")

    p = sub.add_parser("verify", help="operator-identity verification suite")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--jmax", type=int, default=10)
    p.add_argument("--pmax", type=int, default=8)
    p.add_argument(
        "--delta-convention-check",
        choices=["positive", "alternating", "positive-shifted", "alternating-shifted", "none"],
        default="none",
        help="additionally require the extracted delta to match a printed closed form",
    )
    p.add_argument("-o", "--output")

    p = sub.add_parser("classify", help="stratum label for one covector")
    p.add_argument("--variant", choices=["closed", "spiral"], default="closed")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=_parse_number, required=True)
    p.add_argument("--x", type=_parse_pair, required=True, metavar="X1,X2")
    p.add_argument("--tau", type=_parse_number, required=True)
    p.add_argument("--xi", type=_parse_pair, required=True, metavar="XI1,XI2")
    p.add_argument("--mu", type=_parse_number)
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("-o", "--output")

    p = sub.add_parser("flow", help="integrate the spiral Hamilton system")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--mu", type=_parse_number, default=Fraction(1, 2))
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--x0", type=_parse_float_pair, default=(1.2, 0.0), metavar="X1,X2")
    p.add_argument("--xi0", type=_parse_float_pair, default=(-0.96, 0.48), metavar="XI1,XI2")
    p.add_argument("--t-end", type=float, default=50.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--richardson-tol", type=float)
    p.add_argument("--drift-tol", type=float, default=1e-8)
    p.add_argument("--closed-form-tol", type=float, default=1e-6)
    p.add_argument("--csv-out", help="trajectory table destination")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv sends the trajectory to --output instead of the JSON summary")
    p.add_argument("-o", "--output")

    p = sub.add_parser("cutoff", help="band-family derivative bound checks")
    p.add_argument("--r1", type=_parse_number, default=Fraction(1))
    p.add_argument("--r2", type=_parse_number, default=Fraction(2))
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--grid", action="store_true",
                   help="check a grid of family sizes up to N for uniformity")
    p.add_argument("--samples-out", help="sampled cutoff profile CSV destination")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv sends the sampled profile to --output instead of the report")
    p.add_argument("-o", "--output")

    p = sub.add_parser("report-all", help="run every suite with defaults")
    p.add_argument("--k", type=_parse_k_list, default="2,3", help="comma list of model degrees")
    p.add_argument("--outdir", default="stratakit-reports")
    p.add_argument("--seed", type=int, default=20260401)
    p.add_argument("--quick", action="store_true", help="smaller depths everywhere")

    return parser


def _validate(parser: argparse.ArgumentParser, args) -> None:
    for name, value in vars(args).items():
        values = value if isinstance(value, tuple) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            parser.error(f"--{name.replace('_', '-')} must be a finite number")
    if getattr(args, "k", None) is not None and isinstance(args.k, int) and args.k < 2:
        parser.error("k must be >= 2")
    if args.command == "verify":
        if args.jmax < 1 or args.pmax < 1:
            parser.error("jmax and pmax must be >= 1")
    if args.command == "coeffs" and args.jmax < 2:
        parser.error("jmax must be >= 2")
    if args.command == "cutoff":
        if args.N < 4 or args.N & (args.N - 1):
            parser.error("N must be a power of 2, N >= 4")
        if not args.r1 < args.r2:
            parser.error("need r1 < r2")
        if args.kmax < 1:
            parser.error("kmax must be >= 1")
    if args.command == "flow":
        if not 0 < args.a < args.b:
            parser.error("need 0 < a < b")
        if args.mu < 0:
            parser.error("mu must be >= 0")
        if args.h <= 0 or args.t_end <= 0:
            parser.error("need h > 0 and t-end > 0")
        if args.richardson_tol is not None and args.richardson_tol <= 0:
            parser.error("--richardson-tol must be > 0")
        steps = args.t_end / args.h
        if not (math.isfinite(steps) and round(steps) >= 1
                and abs(steps - round(steps)) <= 1e-9 * steps):
            parser.error("--h must divide --t-end into a whole number of steps")
    if args.command == "classify" and args.variant == "spiral":
        if args.mu is None or args.a is None or args.b is None:
            parser.error("spiral classification needs --mu, --a, --b")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)

    if args.command == "coeffs":
        report = run_coeffs(args.jmax, args.table_out)
        _emit(report, args.output)
        return 0 if report["pass"] else 1

    if args.command == "verify":
        report = run_verify(args.k, args.jmax, args.pmax, args.delta_convention_check)
        _emit(report, args.output)
        return 0 if report["pass"] else 1

    if args.command == "classify":
        try:
            report, label = run_classify(args)
        except ValueError as exc:  # zero covector, negative tolerance, bad spiral model
            parser.error(str(exc))
        if args.output:
            _emit(report, args.output)
        print(label.value)
        return 0

    if args.command == "flow":
        params = geometry.ModelParams(
            variant="spiral", k=args.k, mu=args.mu, a=args.a, b=args.b
        )
        csv_out = args.csv_out
        json_out = args.output
        if args.format == "csv" and args.output:
            csv_out, json_out = args.output, None
        try:
            report = run_flow(
                params, args.x0, args.xi0, args.t_end, args.h, args.richardson_tol,
                args.drift_tol, args.closed_form_tol, csv_out,
            )
        except (geometry.StepSizeError, ValueError) as exc:  # unmet tolerance, divergence
            parser.error(str(exc))
        _emit(report, json_out)
        return 0 if report["pass"] else 1

    if args.command == "cutoff":
        samples_out = args.samples_out
        json_out = args.output
        if args.format == "csv" and args.output:
            samples_out, json_out = args.output, None
        report = run_cutoff(args.r1, args.r2, args.N, args.kmax, args.grid, samples_out)
        _emit(report, json_out)
        return 0 if report["pass"] else 1

    if args.command == "report-all":
        ks = args.k
        if any(k < 2 for k in ks):
            parser.error("k must be >= 2")
        outdir = args.outdir
        _check_writable_dir(_resolve_output(outdir))
        depth = {"jmax": 6, "pmax": 5} if args.quick else {"jmax": 10, "pmax": 8}
        coeffs_jmax = 12 if args.quick else 40
        cutoff_n = 16 if args.quick else 64
        sections = {"coeffs": run_coeffs(coeffs_jmax)}
        for k in ks:
            sections[f"verify_k{k}"] = run_verify(k, depth["jmax"], depth["pmax"])
        sections["geometry"] = run_geometry_suite(ks[0], args.seed,
                                                  samples=20 if args.quick else 100)
        sections["flow"] = run_flow(
            geometry.ModelParams(variant="spiral", k=ks[0], mu=0.5, a=1.0, b=2.0),
            (1.2, 0.0), (-0.96, 0.48),
            5.0 if args.quick else 50.0, 1e-3, None, 1e-8, 1e-6,
            str(Path(outdir) / "trajectory.csv"),
        )
        sections["cutoff"] = run_cutoff(
            Fraction(1), Fraction(2), cutoff_n, 8, False,
            str(Path(outdir) / "cutoff_samples.csv"),
        )
        summary = {"sections": {}, "pass": True}
        for name, report in sections.items():
            _emit(report, str(Path(outdir) / f"{name}.json"))
            summary["sections"][name] = report["pass"]
            summary["pass"] = summary["pass"] and report["pass"]
        _emit(summary, str(Path(outdir) / "summary.json"))
        print(json.dumps(summary, indent=2))
        return 0 if summary["pass"] else 1

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
