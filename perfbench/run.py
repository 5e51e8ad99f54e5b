"""Time-to-verdict benchmark for the stratakit command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cutoff-grid|verify-deep|report-all \
        [--seed N] [--seconds S] [--trace 0|1]

One closed-loop client runs the workload's CLI suite as a fresh
``python -m stratakit.cli ...`` process, one at a time and never two at
once, until the next run would end after ``--seconds``.  Each run records
wall time from spawn to exit, the child's peak RSS (``os.wait4`` rusage) and
a correctness verdict computed from answers the benchmark holds itself.

The end-to-end times and the tracing overhead are in reference seconds:
wall seconds multiplied by REFERENCE_S over the median time of the
``perfbench/calibration.py`` runs made in the same benchmark run, one before
and one after each CLI run.  The speed of a shared virtual machine can swing
by up to 2x over minutes; the rescaling takes most of that swing out, and
the raw wall times are printed beside it.  Per-layer span times stay raw
wall seconds of the traced run.

``--trace 0`` prints the end-to-end metrics: ``verdict_s`` (median over the
runs), ``setup_s`` (median time of a fresh ``import stratakit.cli``,
several probes per run) and ``peak_rss_mib`` (median peak RSS).
``--trace 1`` runs the workload once plain and once under
``perfbench/traced_cli.py`` and prints the per-layer metrics with the
tracing overhead.  Metric names and units come from BENCHMARK.json.  The
last line of standard output is one JSON object; the exit code is 0 only
when every run passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
CALIBRATION = Path(__file__).resolve().parent / "calibration.py"

DEFAULT_SEED = 20260401
SETUP_PROBES = 9
REFERENCE_S = 1.0  # calibration.py takes this long on the reference machine
HARD_LIMIT_S = 170.0  # every child is killed before the whole run reaches this
_STARTED = time.perf_counter()


@dataclass
class Run:
    code: int
    wall_s: float
    rss_mib: float
    timed_out: bool
    stdout: str
    stderr: str
    outdir: Path


# -- known answers: computed here with fractions, never by stratakit ---------------


def binomial(a: Fraction, n: int) -> Fraction:
    """Generalized binomial coefficient C(a, n) = a (a-1) ... (a-n+1) / n!."""
    out = Fraction(1)
    for i in range(n):
        out = out * (a - i) / (i + 1)
    return out


def expected_delta(k: int, pmax: int) -> list[Fraction]:
    """delta_l = C(-1/k, l+1), i.e. sum_l delta_l z^(l+1) = (1+z)^(-1/k) - 1."""
    return [binomial(Fraction(-1, k), ell + 1) for ell in range(pmax)]


def verify_gate(k: int, pmax: int, delta: list[Fraction] | None = None):
    delta = expected_delta(k, pmax) if delta is None else delta

    def gate(run: Run, seed: int) -> list[str]:
        report = json.loads(run.stdout)
        problems = []
        residuals = 0
        for check in report["checks"]:
            if check["pass"] is not True:
                problems.append(f"check {check['identity']} did not pass")
            for case in check.get("cases", []):
                if "residual_terms" in case:
                    residuals += 1
                    if case["residual_terms"] != 0:
                        problems.append(f"{check['identity']} case {case} has a residual")
        if residuals == 0:
            problems.append("no residual_terms reported")
        [extracted] = [c for c in report["checks"] if c["identity"] == "x1-localized-power-bracket"]
        got = [Fraction(v) for v in extracted["delta"]]
        if got != delta:
            problems.append(f"delta {got[:4]}... != C(-1/{k}, l+1) {delta[:4]}...")
        return problems

    return gate


def cutoff_gate(n_values: list[int], kmax: int, c_paper: float = 2.0, c_tol: float = 0.05):
    """C_uniform must sit within c_tol of the paper's C ~ 2 (1.98743 at N <= 1024)."""
    pairs = sorted((n, k) for n in n_values for k in range(1, min(kmax, n.bit_length() - 1) + 1))

    def gate(run: Run, seed: int) -> list[str]:
        body = json.loads(run.stdout)["bound_check"]
        problems = []
        got = sorted((e["N"], e["k"]) for e in body["entries"])
        if got != pairs:
            problems.append(f"{len(got)} (N, k) entries, expected {len(pairs)}")
        if body["uniform_within_factor_2"] is not True:
            problems.append("uniform_within_factor_2 is not true")
        if not abs(body["C_uniform"] - c_paper) <= c_tol:
            problems.append(f"C_uniform {body['C_uniform']} not within {c_tol} of {c_paper}")
        return problems

    return gate


REPORT_SECTIONS = ["coeffs", "verify_k2", "verify_k3", "geometry", "flow", "cutoff"]


def report_all_gate(samples: int, drift_tol: float = 1e-8):
    def gate(run: Run, seed: int) -> list[str]:
        def load(name):
            return json.loads((run.outdir / name).read_text())

        summary, geo, flow = load("summary.json"), load("geometry.json"), load("flow.json")
        problems = []
        if sorted(summary["sections"]) != sorted(REPORT_SECTIONS):
            problems.append(f"sections {sorted(summary['sections'])}")
        problems += [f"section {s} failed" for s, ok in summary["sections"].items() if ok is not True]
        if summary["pass"] is not True:
            problems.append("summary pass is not true")
        if geo["seed"] != seed or geo["samples"] != samples:
            problems.append(f"geometry ran seed {geo['seed']} with {geo['samples']} samples")
        for key in ("sigma1_nondegenerate", "sigma2_degenerate"):
            if geo[key] != samples:
                problems.append(f"{key} = {geo[key]}, expected {samples}")
        for key in ("drift_x_xi", "drift_x_A_xi"):
            if not flow[key] <= drift_tol:
                problems.append(f"{key} = {flow[key]} > {drift_tol}")
        return problems

    return gate


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int, Path], list[str]]  # (seed, outdir) -> CLI arguments
    gate: Callable[[Run, int], list[str]]  # (run, seed) -> problems; empty when correct


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cutoff-grid",
            lambda seed, outdir: ["cutoff", "--N", "1024", "--grid"],
            cutoff_gate([4, 16, 64, 256, 1024], kmax=8),
        ),
        Workload(
            "verify-deep",
            lambda seed, outdir: ["verify", "--k", "2", "--jmax", "12", "--pmax", "24"],
            verify_gate(k=2, pmax=24),
        ),
        Workload(
            "report-all",
            lambda seed, outdir: ["report-all", "--outdir", str(outdir), "--seed", str(seed)],
            report_all_gate(samples=100),
        ),
    )
}


# -- the runner ----------------------------------------------------------------------


def spawn(args: list[str], run_dir: Path) -> Run:
    """Run ``python args`` in a fresh interpreter and wait for it to exit.

    Every timed and traced run is a new process on purpose: the module-level
    caches (cutoff._BSUP_CACHE, cutoff._COMB_ROWS, the opalg._phi_derive and
    exactalg.default_table lru_caches) start empty, as they do for every CLI
    user on every invocation.  Repeating work inside one interpreter would
    turn it into cache hits.  No bytecode is cached either, so every run
    compiles the package from source and nothing is written under src/.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(run_dir), PYTHONDONTWRITEBYTECODE="1")
    env.pop("STRATAKIT_REPORT_DIR", None)
    timeout = max(1.0, HARD_LIMIT_S - (time.perf_counter() - _STARTED))
    out_path, err_path = run_dir / "stdout", run_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=run_dir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        code=proc.returncode,
        wall_s=wall,
        rss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        timed_out=proc.returncode == -9 and wall >= timeout,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        outdir=run_dir / "out",
    )


def judge(workload: Workload, run: Run, seed: int) -> list[str]:
    if run.timed_out:
        return ["timed out"]
    problems = []
    if run.code != 0:
        problems.append(f"exit code {run.code}")
    if "Traceback (most recent call last)" in run.stderr:
        problems.append("traceback on stderr")
    if not problems:
        try:
            problems = workload.gate(run, seed)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable report: {exc!r}"]
    return problems


def run_cli(workload: Workload, seed: int, run_dir: Path, trace_out: Path | None = None):
    """One judged CLI run; returns (run, problems, bytes of report output)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    cli_args = workload.argv(seed, run_dir / "out")
    if trace_out is None:
        args = ["-m", "stratakit.cli", *cli_args]
    else:
        args = [str(TRACED_CLI), str(trace_out), *cli_args]
    run = spawn(args, run_dir)
    problems = judge(workload, run, seed)
    report_bytes = len(run.stdout.encode())
    if run.outdir.is_dir():
        report_bytes += sum(p.stat().st_size for p in run.outdir.rglob("*") if p.is_file())
    shutil.rmtree(run_dir)
    for problem in problems:
        print(f"{workload.name}: run failed: {problem}", file=sys.stderr)
    return run, problems, report_bytes


def calibrate(scratch: Path) -> float:
    """Wall seconds of one calibration.py run in a fresh interpreter."""
    run = spawn([str(CALIBRATION)], scratch / "calibration")
    if run.code != 0:
        raise RuntimeError(f"calibration failed:\n{run.stderr}")
    return run.wall_s


def measure(workload: Workload, seed: int, seconds: float, scratch: Path) -> dict:
    """Setup probes, then closed-loop runs until the next one would pass the deadline.

    A calibration runs first and after every CLI run; the medians of the
    setup probes and of the CLI runs are rescaled by the calibrations' median.
    """
    deadline = time.perf_counter() + seconds
    cals = [calibrate(scratch)]
    setups = []
    for i in range(SETUP_PROBES):
        probe = spawn(["-c", "import stratakit.cli"], scratch / f"setup{i}")
        if probe.code != 0:
            raise RuntimeError(f"import stratakit.cli failed:\n{probe.stderr}")
        setups.append(probe.wall_s)
    runs, failed = [], 0
    while True:
        run, problems, _ = run_cli(workload, seed, scratch / f"run{len(runs)}")
        runs.append(run)
        failed += bool(problems)
        cals.append(calibrate(scratch))
        if run.timed_out or time.perf_counter() + run.wall_s + cals[-1] > deadline:
            break
    scale = REFERENCE_S / statistics.median(cals)
    verdicts = [r.wall_s * scale for r in runs]
    print(
        f"{workload.name} seed={seed}: verdict_s median={statistics.median(verdicts):.4f} s "
        f"n={len(verdicts)} {tail_percentile(verdicts)} samples={[round(v, 4) for v in verdicts]}; "
        f"raw wall median={statistics.median(r.wall_s for r in runs):.4f} s, "
        f"calibration median={statistics.median(cals):.4f} s n={len(cals)}; "
        f"setup_s median={statistics.median(setups) * scale:.4f} s n={len(setups)}, "
        f"raw {statistics.median(setups):.4f} s; "
        f"peak_rss_mib median={statistics.median(r.rss_mib for r in runs):.2f} MiB; "
        f"failed_frac={failed / len(runs):.4f} ({failed}/{len(runs)} runs)"
    )
    return {
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            "verdict_s": statistics.median(verdicts),
            "setup_s": statistics.median(setups) * scale,
            "peak_rss_mib": statistics.median(r.rss_mib for r in runs),
        },
    }


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return "tail: none (needs >= 11 samples)"
    return f"p{100 * (n - 10) / n:.1f}={sorted(values)[n - 11]:.4f} s"


# -- the traced run ------------------------------------------------------------------


def layer_metrics(trace: dict, report_bytes: int) -> dict:
    """Per-layer counts and times from the spans written by traced_cli.py.

    A span's self time is its duration minus the time its child spans cover;
    a layer's self time sums that over the layer's spans.  Busy time of a
    function counts only spans not nested in a span of the same function.
    """
    names, spans, counters = trace["names"], trace["spans"], Counter(trace["counters"])
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
    for i, (name_i, start, end, parent) in enumerate(spans):
        name = names[name_i]
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += end - start - child_s[i]
        while parent >= 0 and spans[parent][0] != name_i:
            parent = spans[parent][3]
        if parent < 0:
            busy[name] += end - start

    build_n_calls = calls["localize.build_N"]
    rk4_steps = counters["geometry.rk4_steps"]
    integrate_s = busy["geometry.integrate"]
    return {
        "cutoff.derivative_bound_check_calls": calls["cutoff.derivative_bound_check"],
        "cutoff.derivative_bound_check_s": busy["cutoff.derivative_bound_check"],
        "cutoff.bound_check_s.budget_le_32": counters["cutoff.bound_check_s.budget_le_32"],
        "cutoff.bound_check_s.budget_33_64": counters["cutoff.bound_check_s.budget_33_64"],
        "cutoff.bound_check_s.budget_gt_64": counters["cutoff.bound_check_s.budget_gt_64"],
        "cutoff.orders_checked": counters["cutoff.orders_checked"],
        "cutoff.recursion_product_s": busy["cutoff.recursion_product"],
        "opalg.mul_calls": calls["opalg.DiffOp.__mul__"],
        "opalg.mul_s": busy["opalg.DiffOp.__mul__"],
        "opalg.mul_terms_out": counters["opalg.mul_terms_out"],
        "opalg.max_terms": counters["opalg.max_terms"],
        "opalg.add_calls": calls["opalg.DiffOp.__add__"],
        "opalg.add_s": busy["opalg.DiffOp.__add__"],
        "localize.build_N_calls": build_n_calls,
        "localize.build_N_distinct": counters["localize.build_N_distinct"],
        "localize.build_N_useful_frac": (
            counters["localize.build_N_distinct"] / build_n_calls if build_n_calls else 0.0
        ),
        "localize.build_N_s": busy["localize.build_N"],
        "localize.build_Rp_phi_calls": calls["localize.build_Rp_phi"],
        "localize.build_Rp_phi_s": busy["localize.build_Rp_phi"],
        "localize.extract_delta_s": busy["localize.extract_delta"],
        "localize.verify_x2_bracket_s": busy["localize.verify_x2_bracket"],
        "localize.self_s": self_s["localize"],
        "geometry.integrate_s": integrate_s,
        "geometry.rk4_steps": rk4_steps,
        "geometry.rk4_steps_per_s": rk4_steps / integrate_s if integrate_s else 0.0,
        "geometry.symplectic_rank_calls": calls["geometry.symplectic_rank"],
        "geometry.symplectic_rank_s": busy["geometry.symplectic_rank"],
        "geometry.write_trajectory_csv_s": busy["geometry.write_trajectory_csv"],
        "exactalg.a_table_recurrence_s": busy["exactalg.a_table_recurrence"],
        "exactalg.a_table_generating_s": busy["exactalg.a_table_generating"],
        "exactalg.table_max_digits": counters["exactalg.table_max_digits"],
        "cli.self_s": self_s["cli"],
        "cli.report_bytes": report_bytes,
    }


def trace(workload: Workload, seed: int, scratch: Path) -> dict:
    """One plain run, then one traced run; their difference is the tracing overhead."""
    cals = [calibrate(scratch)]
    plain, plain_problems, _ = run_cli(workload, seed, scratch / "plain")
    cals.append(calibrate(scratch))
    trace_out = scratch / "trace.json"
    traced, traced_problems, report_bytes = run_cli(workload, seed, scratch / "traced", trace_out)
    cals.append(calibrate(scratch))
    metrics = {}
    if not traced_problems:
        metrics = layer_metrics(json.loads(trace_out.read_text()), report_bytes)
    scale = REFERENCE_S / statistics.median(cals)
    plain_s, traced_s = plain.wall_s * scale, traced.wall_s * scale
    metrics["trace.overhead_s"] = traced_s - plain_s
    print(
        f"{workload.name} seed={seed}: traced verdict {traced_s:.4f} s, plain {plain_s:.4f} s, "
        f"overhead {metrics['trace.overhead_s']:.4f} s (raw walls {traced.wall_s:.4f} s, "
        f"{plain.wall_s:.4f} s)"
    )
    return {"attempted": 2, "failed": bool(plain_problems) + bool(traced_problems), "metrics": metrics}


# -- entry point ---------------------------------------------------------------------


def declared_units(trace_mode: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_mode else "end_to_end"]}


def run(workload: Workload, seed: int, seconds: float, trace_mode: bool) -> dict:
    """Measure one workload and return the result object printed on the last line."""
    units = declared_units(trace_mode)
    scratch = RUNS_DIR / workload.name
    try:
        if trace_mode:
            result = trace(workload, seed, scratch)
        else:
            result = measure(workload, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if RUNS_DIR.is_dir() and not any(RUNS_DIR.iterdir()):
            RUNS_DIR.rmdir()
    metrics = result["metrics"]
    correct = result["failed"] == 0
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stratakit" / "cli.py").is_file():
        print(f"no stratakit sources under {SRC}; run from a stratakit checkout", file=sys.stderr)
        return 2
    result = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
