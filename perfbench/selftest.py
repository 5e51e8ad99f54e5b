"""Self-test of the benchmark on tiny inputs.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs each workload's runner and gate on small CLI inputs, in both modes, and
checks that the last line of output names every BENCHMARK.json metric with
its unit.  Then it feeds the verify gate a deliberately wrong delta[0] and
requires the run to be reported as failed: a gate that cannot fail would be
a vacuous pass.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import run as bench

TINY = {
    "verify-deep": bench.Workload(
        "verify-deep",
        lambda seed, outdir: ["verify", "--k", "2", "--jmax", "3", "--pmax", "4"],
        bench.verify_gate(k=2, pmax=4),
    ),
    # the paper's C ~ 2 is the large-N value; at N = 16 the grid needs C ~ 1.54
    "cutoff-grid": bench.Workload(
        "cutoff-grid",
        lambda seed, outdir: ["cutoff", "--N", "16", "--grid"],
        bench.cutoff_gate([4, 16], kmax=8, c_tol=0.5),
    ),
    "report-all": bench.Workload(
        "report-all",
        lambda seed, outdir: ["report-all", "--outdir", str(outdir), "--seed", str(seed), "--quick"],
        bench.report_all_gate(samples=20),
    ),
}


def last_result(workloads: dict, name: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(
            ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            workloads=workloads,
        )
    return code, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in TINY:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = last_result(TINY, name, trace)
            declared = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            where = f"{name} --trace {trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: keys {sorted(result)}")
            if code != 0 or result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: exit {code}, result {result}")
            if printed != declared:
                problems.append(f"{where}: metrics/units {printed} != {declared}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{where}: non-numeric value")
            if not result["attempted"] >= 1:
                problems.append(f"{where}: attempted {result['attempted']}")

    wrong = bench.expected_delta(2, 4)
    wrong[0] += Fraction(1, 1000)
    broken = dict(TINY)
    broken["verify-deep"] = bench.Workload(
        "verify-deep", TINY["verify-deep"].argv, bench.verify_gate(k=2, pmax=4, delta=wrong)
    )
    code, result = last_result(broken, "verify-deep", 0)
    if code == 0 or result["correct"] is not False or result["failed"] != result["attempted"]:
        problems.append(f"a perturbed delta[0] was not reported as a failed run: {result}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
