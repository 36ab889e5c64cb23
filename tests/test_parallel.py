import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nichols_fusion import parallel
from nichols_fusion.cli import main
from nichols_fusion.suites import SUITES, run_suite

DATA = Path(__file__).parent / "data"
REAL_JOBS = parallel.jobs


def force_jobs(monkeypatch, k):
    """Run parallel_map on k processes whatever the CPU count; a worker still
    runs its nested maps in-process."""
    monkeypatch.setattr(parallel, "jobs", lambda n: 1 if parallel._worker else max(1, min(n, k)))


def run_main(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*args, "--format", "json", "--no-cache"])
    return code, buf.getvalue()


def _square(x):
    return x * x


def _jobs_in_worker(n):
    return REAL_JOBS(n), os.getpid()


def _fails_on_three(x):
    if x == 3:
        raise ValueError(f"task {x}")
    return x


@pytest.mark.parametrize("k", [1, 2])
def test_parallel_map_equals_map(monkeypatch, k):
    force_jobs(monkeypatch, k)
    tasks = range(-5, 20)
    assert parallel.parallel_map(_square, tasks) == list(map(_square, tasks))
    assert parallel.parallel_map(_square, []) == []


def test_jobs_is_one_inside_a_worker(monkeypatch):
    force_jobs(monkeypatch, 2)
    got = parallel.parallel_map(_jobs_in_worker, [8, 8, 8])
    assert [j for j, _ in got] == [1, 1, 1]
    assert os.getpid() not in {pid for _, pid in got}


def test_jobs_counts_usable_cpus():
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert parallel.jobs(10**6) == cpus
    assert parallel.jobs(1) == 1
    assert parallel.jobs(0) == 1


def test_jobs_is_one_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    assert parallel.jobs(8) == 1


@pytest.mark.parametrize("k", [1, 2])
def test_a_task_error_reaches_the_caller(monkeypatch, k):
    force_jobs(monkeypatch, k)
    with pytest.raises(ValueError, match="task 3"):
        parallel.parallel_map(_fails_on_three, range(6))


def recorded(name, args):
    """The recorded output tests/data/<name>.json, cut to the checks of the
    one suite that args name when the record holds every suite."""
    text = (DATA / f"{name}.json").read_text()
    payload = json.loads(text)
    suite = args[args.index("--suite") + 1] if "--suite" in args else None
    if payload.get("suite", suite) == suite:
        return text
    checks = [c for c in payload["checks"] if c["name"].split(".")[0] == suite]
    payload.update(checks=checks, ok=all(c["ok"] for c in checks), suite=suite)
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name, args", [
    ("verify_p2_all", ["verify", "--p", "2", "--suite", "all"]),
    ("verify_p3_all", ["verify", "--p", "3", "--suite", "all"]),
    ("verify_p4_all", ["verify", "--p", "4", "--suite", "all"]),
    ("fusion_p4_nu4", ["fusion", "--p", "4", "--nu-mod", "4"]),
    ("verify_p6_braiding", ["verify", "--p", "6", "--suite", "braiding"]),
    ("verify_p6_yd", ["verify", "--p", "6", "--suite", "yd"]),
    *(("verify_p4_all", ["verify", "--p", "4", "--suite", suite]) for suite in SUITES),
])
def test_output_does_not_depend_on_the_job_count(monkeypatch, k, name, args):
    force_jobs(monkeypatch, k)
    assert run_main(args) == (0, recorded(name, args))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("k", [1, 2])
def test_a_raising_check_fails_alike_on_any_job_count(monkeypatch, k):
    # the planted F(2) image of tests/test_cli.py::test_yd_images_are_built_as_r_grows:
    # each check it reaches ends at the same instance, in whichever worker runs it
    from nichols_fusion import ydspace as yds
    from nichols_fusion.linalg import VerificationError

    act = yds.act_Fr_basis

    def broken(K, r, bv):
        if r == 2 and bv.nvertex == 2:
            raise VerificationError("planted at r = 2")
        return act(K, r, bv)

    monkeypatch.setattr(yds, "act_Fr_basis", broken)
    force_jobs(monkeypatch, k)
    code, out = run_main(["verify", "--p", "3", "--suite", "yd"])
    failed = [(c["name"], c["count"], c["detail"]) for c in json.loads(out)["checks"] if not c["ok"]]
    detail = "first failure: instance 3 (1 failing); instance 3 raised: planted at r = 2"
    assert code == 2
    assert failed == [(f"yd.{name}", 3, detail) for name in ("two_vertex", "closed_form_action")]


@pytest.mark.usefixtures("fresh_fields")
@pytest.mark.parametrize("k", [1, 2])
def test_the_closed_form_range_guard_fails_at_its_instance(monkeypatch, k):
    # a one-vertex coefficient that is nonzero where it must vanish (s + r >= p)
    # at charges 2 mod 3, in the closed form's view of ydspace only (the
    # braidings read the real one).  The first out-of-range term is at
    # instance 24, (a, b, s, t) = (0, 2, 1, 2), the first instance that needs
    # the sums of (b mod p, s, t) = (2, 1, 2): the row raises there, naming
    # that instance's key, at any job count
    import types

    from nichols_fusion import fusion as fu
    from nichols_fusion import ydspace as yds

    c1 = yds._c1

    def broken(K, a, s, r):
        return K.one if s + r >= K.p and a % K.p == K.p - 1 else c1(K, a, s, r)

    monkeypatch.setattr(fu, "yds", types.SimpleNamespace(**{**vars(yds), "_c1": broken}))
    force_jobs(monkeypatch, k)
    code, out = run_main(["verify", "--p", "3", "--suite", "braiding"])
    failed = [(c["name"], c["count"], c["detail"]) for c in json.loads(out)["checks"] if not c["ok"]]
    detail = (
        "first failure: instance 24 (1 failing); instance 24 raised: nonzero coefficient"
        " on out-of-range BasisVector(charges=(0, 2), crosses=(0, 3))"
    )
    assert code == 2
    assert failed == [("braiding.monodromy_closed_form", 24, detail)]


@pytest.mark.parametrize("k", [1, 2])
def test_a_suite_entry_equals_its_parallel_run(monkeypatch, k):
    # the benchmark tracer wraps each SUITES entry and reads the CheckResults
    # it returns, so an entry must give what run_suite gives, in one process
    force_jobs(monkeypatch, k)
    for name, suite in SUITES.items():
        assert suite(3) == run_suite(3, name), name
    assert run_suite(3, "all") == [c for suite in SUITES.values() for c in suite(3)]


def test_error_rows_cross_the_pool(monkeypatch):
    # a pair whose two paths disagree is a VerificationError pickled back
    from nichols_fusion import fusion as fu

    closed = fu.fuse_closed

    def broken(p, *key):
        out = closed(p, *key)
        return out + out if key == (2, 1, 1, 0) else out

    monkeypatch.setattr(fu, "fuse_closed", broken)
    outputs = []
    for k in (1, 2):
        force_jobs(monkeypatch, k)
        outputs.append(run_main(["fusion", "--p", "2"]))
    assert outputs[0] == outputs[1]
    code, out = outputs[0]
    assert code == 2 and "fusion paths disagree" in out


def test_a_killed_worker_ends_the_run_with_an_error():
    # the first check task of the hopf suite kills the worker that runs it,
    # whether the run covers every suite or that one
    script = (
        "import os, signal, sys\n"
        "from nichols_fusion import parallel, suites\n"
        "parallel.jobs = lambda n: 1 if parallel._worker else max(1, min(n, 2))\n"
        "kill = lambda p: os.kill(os.getpid(), signal.SIGKILL)\n"
        "suites.CHECKS['hopf'] = (kill, *suites.CHECKS['hopf'][1:])\n"
        "from nichols_fusion.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(parallel.__file__).parent.parent))
    for suite in ("all", "hopf"):
        proc = subprocess.run(
            [sys.executable, "-c", script, "verify", "--p", "3", "--suite", suite, "--no-cache"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode != 0, suite
        assert "BrokenProcessPool" in proc.stderr, proc.stderr
