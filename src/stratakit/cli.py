"""Command-line front end: verification suites and machine-readable reports.

Subcommands
-----------
coeffs      dual-route coefficient table checks (recurrence vs generating
            function), Bernoulli head identity, growth scan
verify      operator-identity suite: localizer brackets, localized-power
            brackets, delta extraction, gamma expansion, Stirling identity
classify    stratum label for one covector, by exact zero tests, and the
            symplectic dichotomy at it
flow        Hamilton trajectory on the leaves with conservation monitors
cutoff      band-family derivative bound checks and the product-rate bound
report-all  every suite, one JSON file per section; each section but the
            symplectic dichotomy is its subcommand run on its own argv

One path takes argv to a report: ``main`` parses, ``run_<command>`` turns
the namespace into a report, ``main`` writes it.  Argparse types check each
outside input's syntax and range (finite numbers, exact rationals for the
exact layers; k >= 2; table depths at most ``_MAX_DEPTH``); ``ModelParams``,
``build_bands`` and ``integrate`` check the rest.  Reports are JSON (CSV
for trajectories and cutoff samples), written atomically (temp file +
rename).  Exit codes: 0 all requested checks pass, 1 a verification failed
(the report is still written), 2 invalid configuration (an argparse error,
or any ValueError the library raises).  The environment variable
STRATAKIT_REPORT_DIR redirects relative output paths.

Layers are imported on use: each runner imports the modules it calls, so
``coeffs`` loads exactalg alone, ``cutoff`` only cutoff and exactalg, and
``import stratakit.cli`` no layer.  Start-up is a large share of a short
run, and every module imported without cached bytecode is compiled first.
Runners call ``module.attr``, so a monkeypatched or traced module attribute
is what runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

REPORT_DIR_ENV = "STRATAKIT_REPORT_DIR"
# the flow's pass thresholds: the largest drift of <x, xi> and <x, A xi>, and
# the largest relative deviation of |xi| from its closed form
FLOW_DRIFT_TOL = 1e-8
FLOW_CLOSED_FORM_TOL = 1e-6
# the deepest coeffs --jmax and verify --jmax/--pmax: a depth-n table of
# (n+1)(n+2)/2 exact entries is built before any check runs, and verify's
# time grows about as depth^4 (at 120 on a shared 2-vCPU VM: 11 s for k = 2,
# 36 s for k >= 120)
_MAX_DEPTH = 120


def _jsonable(obj):
    if isinstance(obj, Fraction):
        from . import exactalg
        return exactalg.fmt_fraction(obj)
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


def _write_atomic(path: Path, write) -> None:
    """Call ``write(fh)`` on a temporary file beside ``path``, then rename it over ``path``."""
    import tempfile
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            write(fh)
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
    import tempfile
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
        _write_atomic(path, lambda fh: fh.write(text))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _number(text: str) -> Fraction:
    """The exact Fraction a literal such as 1/3, 0.1 or 1e-3 denotes; finite."""
    try:
        value = Fraction(text)
        float(value)  # an exact literal beyond the float range, such as 1e400, overflows
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"division by zero in {text!r}") from None
    except (OverflowError, ValueError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number") from None
    return value


def _pair(item):
    """Argparse type for 'a,b', each part read by ``item``."""

    def pair(text: str) -> tuple:
        parts = text.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
        return tuple(item(p.strip()) for p in parts)

    return pair


def _degree(text: str) -> int:
    """Model degree k: an integer >= 2."""
    k = int(text)
    if k < 2:
        raise argparse.ArgumentTypeError("k must be >= 2")
    return k


def _depth(text: str) -> int:
    """Table depth (--jmax, --pmax): an integer no larger than _MAX_DEPTH."""
    n = int(text)
    if n > _MAX_DEPTH:
        raise argparse.ArgumentTypeError(f"depth {n} exceeds the cap of {_MAX_DEPTH}")
    return n


def _degree_list(text: str) -> list[int]:
    ks = [_degree(v) for v in text.split(",") if v.strip()]
    if not ks:
        raise argparse.ArgumentTypeError("expected at least one model degree")
    if len(set(ks)) != len(ks):
        raise argparse.ArgumentTypeError(f"repeated model degree in {text!r}")
    return ks


# -- section runners -----------------------------------------------------------


def run_coeffs(args) -> dict:
    jmax = args.jmax
    if jmax < 2:  # the growth scan's least depth, checked before any table is built
        raise ValueError("jmax must be >= 2")
    from . import exactalg
    recurrence = exactalg.a_table_recurrence(jmax)
    generating = exactalg.a_table_generating(jmax)
    agree = recurrence.entries == generating.entries
    # the relation is re-checked on the independent route's table
    holds = generating.check_recurrence()
    # the band inverse against the closed-form Bernoulli series, over the whole table
    inverse = exactalg.matrix_inverse_coeffs(jmax)
    bern_match = list(exactalg.bernoulli_generator(jmax)) == inverse
    scan = exactalg.bound_scan_a(jmax, table=recurrence)
    report = {
        "suite": "coefficient-tables",
        "jmax": jmax,
        "dual_route_agree": agree,
        "recurrence_holds": holds,
        "bernoulli_head": [exactalg.fmt_fraction(c) for c in inverse[:4]],
        "bernoulli_identity": bern_match,
        "growth_scan": scan,
        "pass": agree and holds and bern_match and scan["pass"],
    }
    if args.table_out:
        text = exactalg.coeff_table_to_json(recurrence) + "\n"
        _write_atomic(_resolve_output(args.table_out), lambda fh: fh.write(text))
        report["table_file"] = args.table_out
    return report


def run_verify(args) -> dict:
    from . import exactalg, localize
    k, jmax, pmax = args.k, args.jmax, args.pmax
    table = exactalg.a_table_recurrence(max(jmax, pmax, 2))
    checks = [
        localize.verify_localizer_bracket(jmax, k, table),
        localize.verify_x2_bracket(pmax, k, table),
        localize.extract_delta(pmax, k, table),
        localize.verify_gamma_expansion(jmax, k, table),
        localize.verify_stirling_identity(min(jmax + 3, 15)),
        exactalg.bound_scan_a(max(jmax, 2), table),
    ]
    # gamma_m = delta_(m-1): the scalar expansion must reproduce the extracted delta
    gamma_ok = all(d == g for d, g in zip(checks[2]["delta"], checks[3]["gamma"]))
    return {
        "suite": "operator-identities",
        "k": k,
        "jmax": jmax,
        "pmax": pmax,
        "checks": checks,
        "reversed_bracket": "[M, X2] = +t^k R = -[X2, M]",
        "gamma_reproduces_delta": gamma_ok,
        "pass": gamma_ok and all(c["pass"] for c in checks),
    }


def run_classify(args) -> dict:
    """The point's label and, on a stratum, its bracket-matrix rank; ``pass`` is
    the paper's dichotomy there: Sigma1 nondegenerate, Sigma2 degenerate."""
    from . import geometry
    params = geometry.ModelParams(args.k, args.mu)
    cov = geometry.Covector(t=args.t, x=args.x, tau=args.tau, xi=args.xi)
    label, flags = geometry.classify_detailed(cov, params)
    report = {
        "suite": "classification",
        "k": params.k,
        "mu": params.mu,
        "point": {
            "t": str(args.t),
            "x": [str(v) for v in args.x],
            "tau": str(args.tau),
            "xi": [str(v) for v in args.xi],
        },
        "label": label.value,
        "flags": flags,
    }
    ok = True
    if label is not geometry.StratumLabel.NONCHARACTERISTIC:
        rank = geometry.symplectic_rank(label, cov, params)
        report["rank"], report["degenerate"] = rank["rank"], rank["degenerate"]
        ok = rank["degenerate"] == (label is geometry.StratumLabel.SIGMA2)
    report["pass"] = ok
    return report


def _rank_verdict(stratum, point, params) -> bool | None:
    """``degenerate`` of the rank test; None when the point is off its stratum,
    which fails the check rather than marking bad configuration."""
    from . import geometry
    try:
        return geometry.symplectic_rank(stratum, point, params)["degenerate"]
    except ValueError:
        return None


def run_geometry_suite(k: int, seed: int, samples: int = 100) -> dict:
    import random
    from . import geometry
    rng = random.Random(seed)
    params = geometry.ModelParams(k)
    sigma1_ok = sigma2_ok = 0
    for _ in range(samples):
        p1 = geometry.sample_sigma1(rng, params)
        sigma1_ok += _rank_verdict(geometry.StratumLabel.SIGMA1, p1, params) is False
        p2 = geometry.sample_sigma2(rng, params)
        sigma2_ok += _rank_verdict(geometry.StratumLabel.SIGMA2, p2, params) is True
    return {
        "suite": "symplectic-dichotomy",
        "k": k,
        "seed": seed,
        "samples": samples,
        "sigma1_nondegenerate": sigma1_ok,
        "sigma2_degenerate": sigma2_ok,
        "arithmetic": "exact-rational",
        "pass": sigma1_ok == samples and sigma2_ok == samples,
    }


def run_flow(args) -> dict:
    from . import geometry
    traj = geometry.integrate(
        args.x0, args.xi0, args.mu, args.a, args.b,
        t_end=args.t_end, h=args.h, richardson_tol=args.richardson_tol,
    )
    ok = (
        traj.drift_x_xi <= FLOW_DRIFT_TOL
        and traj.drift_x_A_xi <= FLOW_DRIFT_TOL
        and traj.xi_closed_form_max_rel_dev <= FLOW_CLOSED_FORM_TOL
        and traj.norm_x_monotone
        and traj.max_norm_x <= traj.b + 1e-9
    )
    report = {
        "suite": "hamilton-flow",
        "params": {"mu": traj.mu, "a": traj.a, "b": traj.b},
        "x0": list(traj.states[0][:2]),
        "xi0": list(traj.states[0][2:]),
        "t_end": args.t_end,
        "h": args.h,
        "initial_monitors": geometry._monitors(traj.states[0], traj.mu),
        "drift_x_xi": traj.drift_x_xi,
        "drift_x_A_xi": traj.drift_x_A_xi,
        "xi_closed_form_max_rel_dev": traj.xi_closed_form_max_rel_dev,
        "norm_x_monotone": traj.norm_x_monotone,
        "max_norm_x": traj.max_norm_x,
        "state_frozen_from": traj.state_frozen_from,
        "log_spiral_fit": traj.log_spiral_fit,
        "thresholds": {"drift": FLOW_DRIFT_TOL, "closed_form_rel": FLOW_CLOSED_FORM_TOL},
        "pass": ok,
    }
    if args.csv_out:
        path = _resolve_output(args.csv_out)
        _write_atomic(path, lambda fh: geometry.write_trajectory_csv(traj, fh))
        report["trajectory_file"] = args.csv_out
    return report


def run_cutoff(args) -> dict:
    from . import cutoff, exactalg
    r1, r2, n, kmax = args.r1, args.r2, args.N, args.kmax
    bands = cutoff.build_bands(r1, r2, n)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if args.samples_out and n > cutoff._MAX_SAMPLES_N:
        raise ValueError(f"--samples-out needs N <= {cutoff._MAX_SAMPLES_N}, got N = {n}")
    if args.grid:
        body = cutoff.bound_check_grid(r1, r2, n, kmax=kmax)
    else:
        checks = [cutoff.derivative_bound_check(band) for band in bands[:kmax]]
        body = {
            "bands": checks,
            "C_uniform": max(c["C_measured"] for c in checks),
            "pass": all(c["pass"] for c in checks),
        }
    c_measured = body["C_uniform"]
    rate_curve = {
        f"2^{e}": cutoff.recursion_product(1 << e, c_measured)["per_N_rate"]
        for e in (10, 11, 12, 13, 14)
    }
    cauchy_gap = abs(rate_curve["2^14"] - rate_curve["2^13"])
    report = {
        "suite": "cutoff-bounds",
        "N": n,
        "band_gaps": [exactalg.fmt_fraction(b.d) for b in bands],
        "budgets": [b.budget for b in bands],
        "bound_check": body,
        "recursion_rate": {
            "C": c_measured,
            "per_N_rate": rate_curve,
            "doubling_cauchy_gap": cauchy_gap,
        },
        "pass": body["pass"] and cauchy_gap <= 1e-3,
    }
    if args.samples_out:
        path = _resolve_output(args.samples_out)
        _write_atomic(path, lambda fh: cutoff.write_cutoff_samples_csv(bands[0], fh))
        report["samples_file"] = args.samples_out
    return report


def run_report_all(args) -> dict:
    """Every suite; each section is its subcommand's runner on that subcommand's argv."""
    outdir = Path(args.outdir)
    _check_writable_dir(_resolve_output(args.outdir))
    parser = _build_parser()

    def section(*argv, quick=()):
        return _run(parser.parse_args([*argv, *(quick if args.quick else ())]))

    sections = {"coeffs": section("coeffs", quick=("--jmax", "12"))}
    for k in args.k:
        sections[f"verify_k{k}"] = section(
            "verify", "--k", str(k), quick=("--jmax", "6", "--pmax", "5")
        )
    sections["geometry"] = run_geometry_suite(
        args.k[0], args.seed, samples=20 if args.quick else 100
    )
    sections["flow"] = section(
        "flow", "--csv-out", str(outdir / "trajectory.csv"), quick=("--t-end", "5")
    )
    sections["cutoff"] = section(
        "cutoff", "--samples-out", str(outdir / "cutoff_samples.csv"), quick=("--N", "16")
    )
    summary = {"sections": {}, "pass": True}
    for name, report in sections.items():
        _emit(report, str(outdir / f"{name}.json"))
        summary["sections"][name] = report["pass"]
        summary["pass"] = summary["pass"] and report["pass"]
    _emit(summary, str(outdir / "summary.json"))
    return summary


def _run(args) -> dict:
    """The report of ``args.command``'s runner, looked up by name at call time."""
    return globals()["run_" + args.command.replace("-", "_")](args)


# -- argument plumbing -----------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratakit",
        description="verification suites for the degenerate sum-of-squares model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="dual-route coefficient table verification")
    p.add_argument("--jmax", type=_depth, default=40)
    p.add_argument("--table-out", help="also serialize the table to this JSON file")
    p.add_argument("-o", "--output", help="report file (stdout when omitted)")

    p = sub.add_parser("verify", help="operator-identity verification suite")
    p.add_argument("--k", type=_degree, default=2)
    p.add_argument("--jmax", type=_depth, default=10)
    p.add_argument("--pmax", type=_depth, default=8)
    p.add_argument("-o", "--output")

    p = sub.add_parser("classify", help="stratum label for one covector")
    p.add_argument("--k", type=_degree, required=True)
    p.add_argument("--t", type=_number, required=True)
    p.add_argument("--x", type=_pair(_number), required=True, metavar="X1,X2")
    p.add_argument("--tau", type=_number, required=True)
    p.add_argument("--xi", type=_pair(_number), required=True, metavar="XI1,XI2")
    p.add_argument("--mu", type=_number, default=Fraction(0))
    p.add_argument("-o", "--output")

    p = sub.add_parser("flow", help="integrate the Hamilton system on the leaves")
    p.add_argument("--mu", type=_number, default=Fraction(1, 2))
    p.add_argument("--a", type=_finite_float, default=1.0)
    p.add_argument("--b", type=_finite_float, default=2.0)
    p.add_argument("--x0", type=_pair(_finite_float), default=(1.2, 0.0), metavar="X1,X2")
    p.add_argument("--xi0", type=_pair(_finite_float), default=(-0.96, 0.48), metavar="XI1,XI2")
    p.add_argument("--t-end", type=_finite_float, default=50.0)
    p.add_argument("--h", type=_finite_float, default=1e-3)
    p.add_argument("--richardson-tol", type=_finite_float)
    p.add_argument("--csv-out", help="trajectory table destination")
    p.add_argument("-o", "--output")

    p = sub.add_parser("cutoff", help="band-family derivative bound checks")
    p.add_argument("--r1", type=_number, default=Fraction(1))
    p.add_argument("--r2", type=_number, default=Fraction(2))
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--grid", action="store_true",
                   help="check a grid of family sizes up to N for uniformity")
    p.add_argument("--samples-out", help="sampled cutoff profile CSV destination")
    p.add_argument("-o", "--output")

    p = sub.add_parser("report-all", help="run every suite with defaults")
    p.add_argument("--k", type=_degree_list, default="2,3", help="comma list of model degrees")
    p.add_argument("--outdir", default="stratakit-reports")
    p.add_argument("--seed", type=int, default=20260401)
    p.add_argument("--quick", action="store_true", help="smaller depths everywhere")
    p.set_defaults(output=None)  # the summary goes to stdout

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = _run(args)
    except ValueError as exc:  # the library refused the input
        parser.error(str(exc))
    if args.command != "classify" or args.output:
        _emit(report, args.output)
    if args.command == "classify":
        print(report["label"])
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
