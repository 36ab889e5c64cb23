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


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name, args", [
    ("verify_p2_all", ["verify", "--p", "2", "--suite", "all"]),
    ("verify_p3_all", ["verify", "--p", "3", "--suite", "all"]),
    ("verify_p4_all", ["verify", "--p", "4", "--suite", "all"]),
    ("fusion_p4_nu4", ["fusion", "--p", "4", "--nu-mod", "4"]),
])
def test_output_does_not_depend_on_the_job_count(monkeypatch, k, name, args):
    force_jobs(monkeypatch, k)
    assert run_main(args) == (0, (DATA / f"{name}.json").read_text())
    assert multiprocessing.active_children() == []


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
    script = (
        "import os, signal, sys\n"
        "from nichols_fusion import parallel, suites\n"
        "parallel.jobs = lambda n: 1 if parallel._worker else max(1, min(n, 2))\n"
        "suites.SUITES['hopf'] = lambda p: os.kill(os.getpid(), signal.SIGKILL)\n"
        "from nichols_fusion.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(parallel.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, "verify", "--p", "3", "--suite", "all", "--no-cache"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "BrokenProcessPool" in proc.stderr, proc.stderr
