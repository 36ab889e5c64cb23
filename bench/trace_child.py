"""Run one nichols-fusion CLI command with every package layer traced.

Usage (from the repository root, with PYTHONPATH=src):

    python3 bench/trace_child.py SUMMARY.json SPANS.bin SEED RUN_ID -- <cli args>

Before calling ``nichols_fusion.cli.main`` it installs, from outside the
package:

- a span around every public module-level function of every package module,
  around the private entry points named in ``PRIVATE_SPANS``, around the
  public methods of ``linalg.Echelon`` and around ``CycNum.inv``.  A function
  copied into another module by ``from ... import`` is rebound there too, as
  are the entries of ``suites.SUITES``, so every binding site reaches the
  wrapper;
- counters only on ``CycNum.__mul__``/``__rmul__``/``__add__``/``__sub__``,
  which are too hot for spans.  The multiply counter also keeps a seeded
  reservoir sample of real operands for the kernel microbenchmark.

Spans (name, start, end, parent span; one run id per process) stay in memory
and are written to SPANS.bin at exit as four packed arrays; counts, distinct
keys and the operand samples go to SUMMARY.json.  The CLI's stdout is left
alone, so its output can be checked against the golden record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import pkgutil
import random
import sys
import time
from array import array

import nichols_fusion
from nichols_fusion import cyclo

# Private functions that are the natural boundary of a layer.
PRIVATE_SPANS = ("ydspace._c1", "ydspace._c2", "cli._render")
PRIVATE_PREFIXES = ("cli._payload_",)
# Class methods traced as spans: (module, class, methods).
METHOD_SPANS = (("linalg", "Echelon", ("add", "contains", "coordinates")),
                ("cyclo", "CycNum", ("inv",)))
SAMPLE_SIZE = 64


class Reservoir:
    """Algorithm L: a uniform sample of ``size`` items from a stream of unknown
    length.  The caller offers item n (1-based) only when n == self.next."""

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.rng = rng
        self.items = []
        self.w = 1.0
        self.next = 1

    def _uniform(self) -> float:
        u = self.rng.random()
        while not 0.0 < u < 1.0:
            u = self.rng.random()
        return u

    def take(self, item) -> None:
        if len(self.items) < self.size:
            self.items.append(item)
            if len(self.items) < self.size:
                self.next += 1
                return
        else:
            self.items[self.rng.randrange(self.size)] = item
        self.w *= math.exp(math.log(self._uniform()) / self.size)
        self.next += int(math.log(self._uniform()) / math.log(1.0 - self.w)) + 1


class Tracer:
    def __init__(self, seed: int):
        self.name_ids = {}  # span name -> the index that spans store
        self.sp_name = array("H")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack = [-1]
        self.counts = {"cyclo.mul": 0, "cyclo.addsub": 0}
        self.distinct = {}  # span name -> set of argument keys
        self.useful = {}  # span name -> calls with a truthy result
        self.suite_checks = {}  # suite name -> check instances returned
        self.fields = []
        rng = random.Random(seed)
        self.mul_sample = Reservoir(SAMPLE_SIZE, rng)
        self.inv_sample = Reservoir(SAMPLE_SIZE, rng)
        self.inv_calls = 0

    def span(self, fn, name: str, observe=None):
        """Wrap fn in a span called name; observe(args, result) runs outside it."""
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        sp_name, sp_parent, sp_start, sp_end = self.sp_name, self.sp_parent, self.sp_start, self.sp_end
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(sp_name)
            sp_name.append(name_id)
            sp_parent.append(stack[-1])
            sp_end.append(0.0)
            stack.append(idx)
            sp_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                sp_end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapped

    def _distinct(self, name, key_fn):
        seen = self.distinct.setdefault(name, set())
        return lambda args, result: seen.add(key_fn(args))

    def _useful(self, name):
        self.useful[name] = 0

        def observe(args, result):
            if result:
                self.useful[name] += 1

        return observe

    def _suite(self, suite):
        self.suite_checks[suite] = 0

        def observe(args, result):
            self.suite_checks[suite] += sum(c.count for c in result)

        return observe

    def _observer(self, name):
        if name in ("ydspace._c1", "classify.p_module_basis"):  # (K, int, ...) arguments
            return self._distinct(name, lambda a: (a[0].p, *a[1:]))
        if name == "linalg.Echelon.add":
            return self._useful(name)
        return None

    def install(self) -> None:
        if cyclo.cyclotomic_field.cache_info().currsize:
            raise RuntimeError("cyclotomic_field cache is not empty before the run")
        modules = {
            info.name: importlib.import_module(f"nichols_fusion.{info.name}")
            for info in pkgutil.iter_modules(nichols_fusion.__path__)
        }
        wrappers = {}  # original function -> wrapper
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if attr.startswith("_") and not (
                    name in PRIVATE_SPANS or name.startswith(PRIVATE_PREFIXES)
                ):
                    continue
                wrappers[obj] = self.span(obj, name, self._observer(name))
        suites = modules["suites"]
        for key, fn in suites.SUITES.items():
            wrappers[fn] = self.span(fn, f"suites.{fn.__name__}", self._suite(key))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        for key, fn in list(suites.SUITES.items()):
            suites.SUITES[key] = wrappers[fn]
        for short, cls_name, methods in METHOD_SPANS:
            cls = getattr(modules[short], cls_name)
            for meth in methods:
                name = f"{short}.{cls_name}.{meth}"
                setattr(cls, meth, self.span(getattr(cls, meth), name, self._observer(name)))
        self._install_counters()

    def _install_counters(self) -> None:
        num, field = cyclo.CycNum, cyclo.CycField
        counts = self.counts
        mul_sample, inv_sample = self.mul_sample, self.inv_sample
        mul, add, sub, inv, init = num.__mul__, num.__add__, num.__sub__, num.inv, field.__init__
        inv_seen = self.distinct.setdefault("cyclo.CycNum.inv", set())

        def counted_mul(a, b):
            n = counts["cyclo.mul"] = counts["cyclo.mul"] + 1
            if n == mul_sample.next:
                mul_sample.take((a, b))
            return mul(a, b)

        def counted_add(a, b):
            counts["cyclo.addsub"] += 1
            return add(a, b)

        def counted_sub(a, b):
            counts["cyclo.addsub"] += 1
            return sub(a, b)

        def observed_inv(x):
            self.inv_calls += 1
            inv_seen.add((x.field.p, x.num, x.den))
            if self.inv_calls == inv_sample.next:
                inv_sample.take(x)
            return inv(x)

        def registered_init(K, p):
            init(K, p)
            self.fields.append(K)

        num.__mul__ = num.__rmul__ = counted_mul
        num.__add__ = counted_add
        num.__sub__ = counted_sub
        # CycNum.inv is already a span (METHOD_SPANS); this layer adds the counts
        num.inv = functools.wraps(inv)(observed_inv)
        field.__init__ = registered_init

    def summary(self, run_id: str) -> dict:
        """Counters (summed over a workload's processes by the caller) and samples."""
        counters = dict(self.counts)
        counters.update({f"distinct:{k}": len(v) for k, v in self.distinct.items()})
        counters.update({f"useful:{k}": v for k, v in self.useful.items()})
        counters.update({f"checks:{k}": v for k, v in self.suite_checks.items()})
        counters["c2_entries"] = sum(len(K._c2) for K in self.fields)
        counters["memo_entries"] = sum(
            len(K._c2) + len(K._qbinom) + len(K._qint) + len(K._qfact) for K in self.fields
        )
        mul_pairs = [
            [a.field.p, list(a.num), a.den, list(b.num), b.den]
            for a, b in self.mul_sample.items
            if isinstance(b, cyclo.CycNum)
        ]
        return {
            "run_id": run_id,
            "span_names": list(self.name_ids),
            "span_count": len(self.sp_name),
            "counters": counters,
            "samples": {
                "mul": mul_pairs,
                "inv": [[x.field.p, list(x.num), x.den] for x in self.inv_sample.items],
            },
        }

    def write_spans(self, path: str) -> None:
        with open(path, "wb") as fh:
            for arr in (self.sp_name, self.sp_parent, self.sp_start, self.sp_end):
                arr.tofile(fh)


def main() -> int:
    summary_path, spans_path, seed, run_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_child.py SUMMARY SPANS SEED RUN_ID -- <cli args>")
    tracer = Tracer(int(seed))
    tracer.install()
    from nichols_fusion import cli

    try:
        rc = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write_spans(spans_path)
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(run_id), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
