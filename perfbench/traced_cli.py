"""Run the stratakit CLI with spans recorded around every public function.

Usage: python3 perfbench/traced_cli.py TRACE_OUT.json CLI_ARG...

Every public module-level function of cli, exactalg, opalg, localize,
geometry and cutoff is wrapped, and so are ``DiffOp.__mul__`` and
``DiffOp.__add__`` on the class.  A wrapper is installed under every name
that binds the original, so ``from .opalg import commutator`` in localize
and module-global lookups such as ``build_N`` inside ``build_Rp_phi`` both
reach it.  Spans (name, start, end, parent span) and a few counters stay in
memory and are written to TRACE_OUT.json when the CLI returns.  Private
kernels (``_deriv_numerator``, ``_sup_batch``, ``_rk4_step``) get no spans of
their own; their time shows as self time of the public function above them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from stratakit import cli, cutoff, exactalg, geometry, localize, opalg

LAYERS = (cli, exactalg, opalg, localize, geometry, cutoff)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.distinct_localizers: set = set()
        self.tables: dict[int, exactalg.CoeffTable] = {}

    def wrap(self, name: str, fn, hook=None):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, span[2] - span[1])
            return result

        return traced

    # -- hooks: counts taken where the work happens ------------------------------

    def on_bound_check(self, args, kwargs, result, seconds):
        budget = result["budget"]
        band = "le_32" if budget <= 32 else "33_64" if budget <= 64 else "gt_64"
        self.counters[f"cutoff.bound_check_s.budget_{band}"] += seconds
        self.counters["cutoff.orders_checked"] += len(result["checked_orders"])

    def on_op_result(self, args, kwargs, result, seconds):
        self.counters["opalg.max_terms"] = max(self.counters["opalg.max_terms"], len(result))

    def on_mul(self, args, kwargs, result, seconds):
        self.counters["opalg.mul_terms_out"] += len(result)
        self.on_op_result(args, kwargs, result, seconds)

    def on_build_n(self, args, kwargs, result, seconds):
        table = args[2] if len(args) > 2 else kwargs.get("table")
        self.distinct_localizers.add((result.j, result.k, id(table)))

    def on_integrate(self, args, kwargs, result, seconds):
        self.counters["geometry.rk4_steps"] += len(result.states) - 1

    def on_table(self, args, kwargs, result, seconds):
        self.tables[id(result)] = result

    def install(self) -> None:
        hooks = {
            "cutoff.derivative_bound_check": self.on_bound_check,
            "localize.build_N": self.on_build_n,
            "geometry.integrate": self.on_integrate,
            "exactalg.a_table_recurrence": self.on_table,
            "exactalg.a_table_generating": self.on_table,
            "exactalg.default_table": self.on_table,
        }
        replaced = {}
        for module in LAYERS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported from elsewhere; wrapped at its home module
                name = f"{layer}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, hooks.get(name))
        # rebind every module-level name that refers to a wrapped original
        for module in LAYERS:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        opalg.DiffOp.__mul__ = self.wrap("opalg.DiffOp.__mul__", opalg.DiffOp.__mul__, self.on_mul)
        opalg.DiffOp.__add__ = self.wrap(
            "opalg.DiffOp.__add__", opalg.DiffOp.__add__, self.on_op_result
        )

    def dump(self, path: str) -> None:
        digits = max(
            (len(str(abs(v.numerator))) for t in self.tables.values() for v in t.entries.values()),
            default=0,
        )
        counters = dict(self.counters)
        counters["exactalg.table_max_digits"] = digits
        counters["localize.build_N_distinct"] = len(self.distinct_localizers)
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": counters}, fh)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects a configuration with exit 2
        code = exc.code if isinstance(exc.code, int) else 1
    recorder.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
