#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nichols-fusion CLI.

Run from the repository root; the package is used from ``src`` (it need not
be installed):

    python3 bench/run.py --workload verify-p5 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload, both modes
    python3 bench/run.py --record-golden             # rewrite bench/golden.json

Workloads (closed loop, one process at a time):

- ``verify-p5``: ``verify --p 5 --suite all``, the headline command; the only
  workload where the loop, yd, duality, ring and classify suites run.
- ``braid-p6``: ``verify --p 6 --suite braiding``; bound by CycNum multiply and
  the ydspace closed forms, with no inversions and no Echelon rows.
- ``tables-p11``: five data commands at field degrees 20 and 16; bound by
  inversion, with no ``_c1`` or ``braid_B`` calls.

Every CLI invocation is a fresh process with ``PYTHONPATH=src`` and a new,
empty ``--cache-dir``, so caches and field memos start cold as for a user.
Each output is compared with ``bench/golden.json``; an op (a verify check
instance, or an emitted table row) fails when its check is not ok, its row
carries ``"error"``, its process exits non-zero or it differs from the record.

``--trace 0`` reports the end-to-end metrics from untraced runs: ``wall_s``
(spawn to exit of the workload's processes, median over the passes that fit
in ``--seconds``, at least one), ``setup_s`` (interpreter start until
``nichols_fusion.cli`` is imported and ``cyclotomic_field(p)`` is built,
measured in the child, median of several probes), ``ops_per_s`` (ops that
passed per second of ``wall_s``) and ``peak_rss_mib`` (largest VmHWM of the
workload's processes).  ``--trace 1`` runs one untraced pass and one traced pass
(``bench/trace_child.py``) and reports the per-layer metrics, then times the
cyclotomic kernels on operands sampled from the traced pass
(``bench/kernels.py``).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_work"

# The console script's body, plus a record of the process's peak RSS (VmHWM) at
# exit.  The parent's ru_maxrss of the child cannot serve: it also counts the
# parent's pages that the child held between fork and exec.
CLI = (
    "import sys\n"
    "hwm_path = sys.argv.pop(1)\n"
    "from nichols_fusion.cli import main\n"
    "try:\n"
    "    rc = main()\n"
    "finally:\n"
    "    with open('/proc/self/status') as st, open(hwm_path, 'w') as out:\n"
    "        out.write(next(line for line in st if line.startswith('VmHWM:')).split()[1])\n"
    "sys.exit(rc)\n"
)
SETUP_PROBE = (
    "import sys, time; t0 = float(sys.argv[1]); import nichols_fusion.cli; "
    "from nichols_fusion import cyclotomic_field\n"
    "for p in sys.argv[2:]: cyclotomic_field(int(p))\n"
    "print(repr(time.monotonic() - t0))"
)
SETUP_PROBES = 15
# One run must end within 180 s; a child still running at this point is killed.
RUN_BUDGET_S = 170.0

WORKLOADS = {
    "verify-p5": {
        "ps": (5,),
        "commands": (("verify", "--p", "5", "--suite", "all"),),
    },
    "braid-p6": {
        "ps": (6,),
        "commands": (("verify", "--p", "6", "--suite", "braiding"),),
    },
    "tables-p11": {
        "ps": (11, 12),
        "commands": (
            ("fusion", "--p", "11", "--nu-mod", "2"),
            ("fusion", "--p", "12", "--nu-mod", "2"),
            ("loop", "--p", "11", "--nu-mod", "4"),
            ("classify", "--p", "12"),
            ("decompose", "--p", "12", "--vertices", "2"),
        ),
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mib", "MiB"))
SUITE_NAMES = ("hopf", "yd", "braiding", "ribbon", "duality", "classify", "fusion", "loop", "ring")
KERNEL_DEGREES = (8, 16, 20)
PER_LAYER = (
    ("cyclo.mul.count", "count"),
    ("cyclo.addsub.count", "count"),
    ("cyclo.inv.count", "count"),
    ("cyclo.inv.distinct_ratio", "ratio"),
    ("cyclo.inv.self_s", "s"),
    *((f"cyclo.{op}.us.d{d}", "us") for op in ("mul", "inv") for d in KERNEL_DEGREES),
    ("cyclo.memo.entries", "count"),
    ("ydspace.self_s", "s"),
    ("ydspace.act_Fr_basis.count", "count"),
    ("ydspace._c1.count", "count"),
    ("ydspace._c1.distinct_ratio", "ratio"),
    ("ydspace._c2.count", "count"),
    ("ydspace._c2.hit_ratio", "ratio"),
    ("ydspace.braid_B.count", "count"),
    ("ydspace.braid_B.self_s", "s"),
    ("ydspace.yd_axiom_check.self_s", "s"),
    ("linalg.self_s", "s"),
    ("linalg.Echelon.add.count", "count"),
    ("linalg.Echelon.add.useful_ratio", "ratio"),
    ("linalg.Echelon.contains.count", "count"),
    ("linalg.Echelon.coordinates.count", "count"),
    ("classify.self_s", "s"),
    ("classify.p_module_basis.count", "count"),
    ("classify.p_module_basis.distinct_ratio", "ratio"),
    ("classify.generate_submodule.count", "count"),
    ("fusion.self_s", "s"),
    ("fusion.fuse_brute.count", "count"),
    ("fusion.fuse_brute.self_s", "s"),
    ("fusion.fusion_map_basis.count", "count"),
    ("loop.self_s", "s"),
    ("loop.chi_apply.count", "count"),
    ("loop.chi_apply.self_s", "s"),
    ("loop.sigma2_scalar_one_vertex.count", "count"),
    ("loop.mu_closed.count", "count"),
    ("nichols.self_s", "s"),
    ("fusionring.self_s", "s"),
    ("fusionring.ring_multiply.count", "count"),
    *((f"suites.{s}.{m}", u) for s in SUITE_NAMES for m, u in (("s", "s"), ("checks", "count"))),
    ("cli.payload.s", "s"),
    ("cli.render.s", "s"),
    ("cli.output.bytes", "bytes"),
    ("trace_overhead_frac", "ratio"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("NICHOLS_FUSION_CACHE_DIR", "PYTHONHOME", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    return env


def cli_argv(cmd: tuple, cache_dir: Path) -> list:
    return [*cmd, "--format", "json", "--cache-dir", str(cache_dir)]


def command_key(cmd: tuple) -> str:
    return " ".join(cmd)


# -- golden record and failure counting ---------------------------------------

def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_of(payload: dict) -> dict:
    """What the golden record keeps of one CLI payload."""
    if payload["command"] == "verify":
        return {"checks": [[c["name"], c["count"], c["ok"]] for c in payload["checks"]]}
    key = "table" if "table" in payload else "summands"
    header = {k: v for k, v in payload.items() if k != key}
    return {"header": digest(header), "rows": [digest(r) for r in payload[key]]}


def count_failures(rc: int, out_path: Path, golden: dict) -> tuple[int, int]:
    """(attempted, failed) ops of one command's output against its record.

    The record holds only passing checks and rows without "error", so a failed
    check or an "error" row differs from it and counts as failed here.
    """
    if "checks" in golden:
        want = {name: count for name, count, _ in golden["checks"]}
    else:
        want = dict(enumerate(golden["rows"]))
    attempted = sum(want.values()) if "checks" in golden else len(want)
    try:
        got = record_of(json.loads(out_path.read_text())) if rc == 0 else {}
    except (ValueError, KeyError, TypeError):
        got = {}
    if "checks" in golden and "checks" in got:
        have = {name: (count, ok) for name, count, ok in got["checks"]}
        extra = sum(count for name, (count, _) in have.items() if name not in want)
        failed = sum(count for name, count in want.items() if have.get(name) != (count, True))
        return attempted + extra, failed + extra
    if got.get("header") == golden.get("header") and "rows" in got:
        extra = max(0, len(got["rows"]) - len(want))
        failed = sum(1 for i, row in want.items() if i >= len(got["rows"]) or got["rows"][i] != row)
        return attempted + extra, failed + extra
    return attempted, attempted


# -- one benchmark run --------------------------------------------------------

class Session:
    """Work directory, golden record and time budget of one benchmark run."""

    def __init__(self, label: str, golden: dict):
        self.golden = golden
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = WORK / f"{label}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        path.mkdir()
        if any(path.iterdir()):
            raise BenchError(f"{path} is not empty")
        return path

    def spawn(self, argv: list, stdout_path: Path) -> tuple[int, float]:
        """Run one child; return (exit code, wall seconds)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run exceeded its time budget")
        with open(stdout_path, "wb") as out:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stdin=subprocess.DEVNULL,
                                    env=child_env(), cwd=ROOT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                rc = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - t0
        if time.monotonic() >= self.deadline:
            raise BenchError("run exceeded its time budget")
        return rc, wall

    def run_cli(self, cmd: tuple, name: str) -> tuple[int, float, float, Path]:
        """One cold CLI process with an empty cache.

        Returns (exit code, wall seconds, peak RSS in MiB, path of its stdout).
        """
        out, hwm = self.work / f"{name}.out", self.work / f"{name}.hwm"
        argv = [sys.executable, "-c", CLI, str(hwm), *cli_argv(cmd, self.fresh_dir(f"{name}.cache"))]
        rc, wall = self.spawn(argv, out)
        peak = int(hwm.read_text()) / 1024.0 if hwm.is_file() else 0.0
        shutil.rmtree(self.work / f"{name}.cache")
        hwm.unlink(missing_ok=True)
        return rc, wall, peak, out


# -- untraced passes ----------------------------------------------------------

def run_pass(sess: Session, workload: str) -> dict:
    """One untraced pass: every command of the workload once, each cold."""
    wall = rss = 0.0
    attempted = failed = 0
    for i, cmd in enumerate(WORKLOADS[workload]["commands"]):
        rc, dt, peak, out = sess.run_cli(cmd, f"cmd{i}")
        wall += dt
        rss = max(rss, peak)
        a, f = count_failures(rc, out, sess.golden[command_key(cmd)])
        attempted += a
        failed += f
        out.unlink()
    return {"wall_s": wall, "peak_rss_mib": rss, "attempted": attempted, "failed": failed}


def measure_setup(sess: Session, ps: tuple) -> list:
    samples = []
    out = sess.work / "setup.out"
    for i in range(SETUP_PROBES + 1):  # probe 0 warms the bytecode cache and is dropped
        t0 = time.monotonic()
        rc, _ = sess.spawn([sys.executable, "-c", SETUP_PROBE, repr(t0), *map(str, ps)], out)
        if rc != 0:
            raise BenchError(f"setup probe exited with {rc}")
        if i:
            samples.append(float(out.read_text()))
    return samples


def run_untraced(sess: Session, workload: str, seconds: float) -> dict:
    setup = measure_setup(sess, WORKLOADS[workload]["ps"])
    start = time.monotonic()
    passes = [run_pass(sess, workload)]
    while time.monotonic() - start + passes[-1]["wall_s"] <= seconds:
        passes.append(run_pass(sess, workload))
    return {
        "samples": {
            "wall_s": [p["wall_s"] for p in passes],
            "setup_s": setup,
            "ops_per_s": [(p["attempted"] - p["failed"]) / p["wall_s"] for p in passes],
            "peak_rss_mib": [p["peak_rss_mib"] for p in passes],
        },
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }


# -- traced pass --------------------------------------------------------------

def aggregate_spans(path: Path, names: list, n: int) -> dict:
    """{name: [count, inclusive s, self s]} from one process's span file.

    A span's self time is its duration minus the durations of its child spans.
    """
    sp_name, sp_parent, sp_start, sp_end = array("H"), array("i"), array("d"), array("d")
    with open(path, "rb") as fh:
        for arr in (sp_name, sp_parent, sp_start, sp_end):
            arr.fromfile(fh, n)
    dur = array("d", map(operator.sub, sp_end, sp_start))
    child = array("d", bytes(8 * n))
    for i, parent in enumerate(sp_parent):
        if parent >= 0:
            child[parent] += dur[i]
    stats = {name: [0, 0.0, 0.0] for name in names}
    for i in range(n):
        st = stats[names[sp_name[i]]]
        st[0] += 1
        st[1] += dur[i]
        st[2] += dur[i] - child[i]
    return stats


def run_traced(sess: Session, workload: str, seed: int) -> dict:
    count = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    counters = defaultdict(int)
    samples = {"mul": [], "inv": []}
    wall = 0.0
    out_bytes = attempted = failed = 0
    for i, cmd in enumerate(WORKLOADS[workload]["commands"]):
        out, summary_path, spans_path = (sess.work / f"trace{i}{ext}"
                                         for ext in (".out", ".json", ".spans"))
        argv = [sys.executable, str(BENCH / "trace_child.py"), str(summary_path),
                str(spans_path), str(seed), f"{workload}-{seed}-{i}", "--",
                *cli_argv(cmd, sess.fresh_dir(f"trace{i}.cache"))]
        rc, dt = sess.spawn(argv, out)
        wall += dt
        out_bytes += out.stat().st_size
        a, f = count_failures(rc, out, sess.golden[command_key(cmd)])
        attempted += a
        failed += f
        summary = json.loads(summary_path.read_text())
        stats = aggregate_spans(spans_path, summary["span_names"], summary["span_count"])
        for name, (c, inc, slf) in stats.items():
            count[name] += c
            incl[name] += inc
            self_s[name] += slf
        for key, value in summary["counters"].items():
            counters[key] += value
        for kind in samples:
            samples[kind] += summary["samples"][kind]
        for path in (out, summary_path, spans_path):
            path.unlink()
    return {"count": count, "incl": incl, "self": self_s, "counters": counters,
            "samples": samples, "wall_s": wall, "out_bytes": out_bytes,
            "attempted": attempted, "failed": failed}


def run_kernels(sess: Session, samples: dict, seed: int) -> dict:
    sample_path, result_path = sess.work / "kernel_samples.json", sess.work / "kernels.json"
    sample_path.write_text(json.dumps(samples))
    argv = [sys.executable, str(BENCH / "kernels.py"), str(sample_path), str(seed),
            str(result_path), *map(str, KERNEL_DEGREES)]
    rc, _ = sess.spawn(argv, sess.work / "kernels.out")
    if rc != 0:
        raise BenchError(f"kernel microbenchmark exited with {rc}")
    return json.loads(result_path.read_text())


def ratio(num: float, den: float) -> float:
    """num / den, or 0 when the function was never called."""
    return num / den if den else 0.0


def per_layer_metrics(tr: dict, kernels: dict, untraced_wall: float) -> dict:
    count, self_s, incl, counters = tr["count"], tr["self"], tr["incl"], tr["counters"]
    module_self = defaultdict(float)
    for name, value in self_s.items():
        module_self[name.split(".")[0]] += value
    v = {
        "cyclo.mul.count": counters["cyclo.mul"],
        "cyclo.addsub.count": counters["cyclo.addsub"],
        "cyclo.inv.count": count["cyclo.CycNum.inv"],
        "cyclo.inv.distinct_ratio": ratio(counters["distinct:cyclo.CycNum.inv"],
                                          count["cyclo.CycNum.inv"]),
        "cyclo.inv.self_s": self_s["cyclo.CycNum.inv"],
        "cyclo.memo.entries": counters["memo_entries"],
        "ydspace._c1.distinct_ratio": ratio(counters["distinct:ydspace._c1"],
                                            count["ydspace._c1"]),
        # _c2 stores every miss in K._c2, so the entries at exit are the misses
        "ydspace._c2.hit_ratio": ratio(count["ydspace._c2"] - counters["c2_entries"],
                                       count["ydspace._c2"]),
        "linalg.Echelon.add.useful_ratio": ratio(counters["useful:linalg.Echelon.add"],
                                                 count["linalg.Echelon.add"]),
        "classify.p_module_basis.distinct_ratio": ratio(
            counters["distinct:classify.p_module_basis"], count["classify.p_module_basis"]),
        "cli.payload.s": sum(t for name, t in incl.items() if name.startswith("cli._payload_")),
        "cli.render.s": incl["cli._render"],
        "cli.output.bytes": tr["out_bytes"],
        "trace_overhead_frac": tr["wall_s"] / untraced_wall - 1.0,
    }
    for op in ("mul", "inv"):
        for d in KERNEL_DEGREES:
            v[f"cyclo.{op}.us.d{d}"] = kernels[f"{op}_us"][str(d)]
    for suite in SUITE_NAMES:
        v[f"suites.{suite}.s"] = incl[f"suites.suite_{suite}"]
        v[f"suites.{suite}.checks"] = counters[f"checks:{suite}"]
    for name, _ in PER_LAYER:  # the rest: <module>.self_s, <span>.self_s, <span>.count
        if name in v:
            continue
        head, _, tail = name.rpartition(".")
        if tail == "self_s":
            v[name] = self_s[head] if "." in head else module_self[head]
        elif tail == "count":
            v[name] = count[head]
        else:
            raise BenchError(f"no rule for per-layer metric {name}")
    return v


# -- reporting ----------------------------------------------------------------

def tail_percentile(samples: list):
    """(q, value) for the highest of p50/p90/p99 with at least ten samples above it."""
    ordered = sorted(samples)
    best = None
    for q in (50, 90, 99):
        k = int(len(ordered) * q / 100)
        if len(ordered) - k - 1 >= 10:
            best = (q, ordered[k])
    return best


def describe(name: str, unit: str, samples: list) -> str:
    line = f"  {name:<14} {statistics.median(samples):.6g} {unit}  (median of n={len(samples)}"
    tail = tail_percentile(samples)
    if tail:
        return line + f"; p{tail[0]} {tail[1]:.6g} {unit})"
    return line + "; too few samples for a tail percentile)"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    sess = Session(workload, golden)
    try:
        if not trace:
            untraced = run_untraced(sess, workload, seconds)
            attempted, failed = untraced["attempted"], untraced["failed"]
            print(f"{workload}: end-to-end (untraced, seed {seed})")
            for name, unit in END_TO_END:
                print(describe(name, unit, untraced["samples"][name]))
            print(f"  failed_frac    {failed / attempted:.6g}  ({failed} of {attempted} ops)")
            metrics = {name: {"value": statistics.median(untraced["samples"][name]), "unit": unit}
                       for name, unit in END_TO_END}
        else:
            reference = run_pass(sess, workload)  # untraced, for trace_overhead_frac
            traced = run_traced(sess, workload, seed)
            kernels = run_kernels(sess, traced["samples"], seed)
            values = per_layer_metrics(traced, kernels, reference["wall_s"])
            attempted = reference["attempted"] + traced["attempted"] + kernels["checks"]
            failed = reference["failed"] + traced["failed"] + kernels["failed"]
            print(f"{workload}: per layer (traced, seed {seed}; kernel operands: "
                  f"{kernels['source']})")
            for name, unit in PER_LAYER:
                print(f"  {name:<40} {values[name]:>14.6g} {unit}")
            print(f"  failed_frac {failed / attempted:.6g}  ({failed} of {attempted} ops, "
                  "untraced and traced passes and kernel checks)")
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    finally:
        sess.close()
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_golden() -> None:
    sess = Session("golden", {})
    golden = {}
    try:
        for spec in WORKLOADS.values():
            for cmd in spec["commands"]:
                rc, _, _, out = sess.run_cli(cmd, "golden")
                payload = json.loads(out.read_text())
                rows = payload.get("checks") or payload.get("table") or payload["summands"]
                if rc != 0 or not payload["ok"] or any(
                        "error" in row or row.get("ok") is False for row in rows):
                    raise BenchError(f"{command_key(cmd)} did not pass; no record written")
                golden[command_key(cmd)] = record_of(payload)
    finally:
        sess.close()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    # SIGTERM unwinds through Session.spawn, which kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "nichols_fusion" / "cli.py").is_file():
        print(f"error: no nichols_fusion sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if not GOLDEN.is_file():
            raise BenchError(f"missing golden record {GOLDEN}")
        golden = json.loads(GOLDEN.read_text())
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), golden)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (False, True):
                    r = run_workload(workload, args.seed, args.seconds, trace, golden)
                    result["correct"] &= r["correct"]
                    result["attempted"] += r["attempted"]
                    result["failed"] += r["failed"]
                    for name, m in r["metrics"].items():
                        result["metrics"][f"{workload}.{name}"] = m
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
