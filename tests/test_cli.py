import json
import io
import contextlib
import errno
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nichols_fusion import cli
from nichols_fusion.cli import main


def run_cli(args, cache=None):
    buf = io.StringIO()
    argv = list(args)
    if cache is not None:
        argv += ["--cache-dir", str(cache)]
    else:
        argv += ["--no-cache"]
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse error path
            code = exc.code
    return code, buf.getvalue()


def test_usage_errors_exit_1():
    code, _ = run_cli(["fusion", "--p", "1"])
    assert code == 1
    code, _ = run_cli(["fusion", "--p", "13"])
    assert code == 1
    code, _ = run_cli(["classify", "--p", "3", "--a", "1"])
    assert code == 1
    code, _ = run_cli(["classify", "--p", "3", "--a", "1", "--b", "0", "--t", "5"])
    assert code == 1


def test_p_cap_is_configurable():
    code, _ = run_cli(["decompose", "--p", "13", "--max-p", "13", "--vertices", "1"])
    assert code == 0


def test_fusion_json_contains_spec_row():
    code, out = run_cli(["fusion", "--p", "2", "--format", "json", "--nu-mod", "4"])
    assert code == 0
    data = json.loads(out)
    rows = [
        r
        for r in data["table"]
        if (r["r1"], r["nu1"], r["r2"], r["nu2"]) == (2, 0, 2, 0)
    ]
    assert rows[0]["summands"] == [{"kind": "P", "nu": 0, "r": 1}]


def test_fusion_nu_mod_2_table_shape():
    code, out = run_cli(["fusion", "--p", "3", "--nu-mod", "2"])
    assert code == 0
    data = json.loads(out)
    assert len(data["table"]) == 6 * 6  # 2p simples on each side


def test_classify_cell():
    code, out = run_cli(["classify", "--p", "5", "--a", "0", "--b", "0", "--t", "2"])
    assert code == 0
    data = json.loads(out)
    assert (data["kind"], data["r"], data["nu"]) == ("L", 2, 1)


def test_decompose_multiplicities():
    code, out = run_cli(["decompose", "--p", "5", "--vertices", "2"])
    assert code == 0
    data = json.loads(out)
    by_key = {(s["kind"], s["r"]): s["mult"] for s in data["summands"]}
    assert by_key[("S", 5)] == 25
    assert [by_key[("V", r)] for r in (1, 2, 3, 4)] == [8, 12, 12, 8]
    assert [by_key[("P", r)] for r in (1, 2, 3, 4)] == [16, 9, 4, 1]
    assert data["dimension"] == 625


def test_loop_scalars_round_trip():
    code, out = run_cli(["loop", "--p", "2", "--nu-mod", "2"])
    assert code == 0
    data = json.loads(out)
    row = [r for r in data["table"] if (r["rp"], r["nup"], r["r"], r["nu"]) == (1, 0, 1, 0)][0]
    assert row["lambda"]["zeta_coeffs"][0] == 1  # the unit eigenvalue
    assert json.loads(json.dumps(data)) == data


def test_verify_passes_and_prints_lines():
    code, out = run_cli(["verify", "--p", "2", "--suite", "hopf"])
    assert code == 0
    assert "PASS hopf.bialgebra" in out
    assert "checks passed" in out


def test_verify_deterministic_and_cached(tmp_path):
    code1, out1 = run_cli(["verify", "--p", "2", "--suite", "ring"], cache=tmp_path)
    code2, out2 = run_cli(["verify", "--p", "2", "--suite", "ring"], cache=tmp_path)
    assert code1 == code2 == 0
    assert out1 == out2
    cached = list(tmp_path.glob("*.json"))
    assert len(cached) == 1
    stored = json.loads(cached[0].read_text())
    assert stored["schema"].startswith("nichols-fusion/")


def test_csv_format():
    code, out = run_cli(["decompose", "--p", "3", "--vertices", "1", "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert set(header.split(",")) == {"kind", "r", "mult"}


def test_out_file(tmp_path):
    # every command and format at p = 3: the --out file is stdout, and the
    # cache entry the first run stores is the compact dump of the payload
    commands = [["fusion"], ["decompose"], ["classify"], ["classify", "--a", "0", "--b", "0", "--t", "0"],
                ["loop"], ["verify"]]
    for n, args in enumerate(commands):
        cache = tmp_path / f"cache{n}"
        for fmt in ("json", "csv", "pretty"):
            target = tmp_path / f"report{n}.{fmt}"
            argv = args + ["--p", "3", "--format", fmt, "--out", str(target)]
            code, out = run_cli(argv, cache=cache)
            assert code == 0
            assert target.read_text() == out, argv
            if fmt == "json":
                (entry,) = _cache_entries(cache)
                assert entry.read_text() == json.dumps(json.loads(out), sort_keys=True)


@pytest.mark.usefixtures("fresh_fields")
@pytest.mark.parametrize(
    "suite, check", [("fusion", "fusion.theorem_both_paths"), ("ring", "ring.matches_module_fusion")]
)
def test_fusion_disagreement_is_a_fail_line(monkeypatch, suite, check):
    # a closed form that is wrong only when r1 > r2 breaks the swapped call too
    from nichols_fusion import fusion as fu

    closed = fu.fuse_closed

    def broken(p, r1, nu1, r2, nu2):
        out = closed(p, r1, nu1, r2, nu2)
        if r1 > r2:
            out = tuple(fu.ModuleDescriptor(d.kind, d.r, (d.nu + 1) % 4) for d in out)
        return out

    monkeypatch.setattr(fu, "fuse_closed", broken)
    code, out = run_cli(["verify", "--p", "3", "--suite", suite])
    assert code == 2
    assert f"FAIL {check} " in out


def test_fusion_disagreement_is_an_error_row(monkeypatch):
    from nichols_fusion import fusion as fu

    closed, bad = fu.fuse_closed, (2, 1, 1, 0)

    def broken(p, *key):
        out = closed(p, *key)
        return out + out if key == bad else out

    monkeypatch.setattr(fu, "fuse_closed", broken)
    code, out = run_cli(["fusion", "--p", "2", "--nu-mod", "2"])
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False
    errors = [r for r in data["table"] if "error" in r]
    assert [(r["r1"], r["nu1"], r["r2"], r["nu2"]) for r in errors] == [bad]
    assert "fusion paths disagree" in errors[0]["error"]
    assert all("summands" in r for r in data["table"] if "error" not in r)


def test_fusion_suite_fuses_each_pair_once(monkeypatch, tmp_path):
    # both orders of a pair are read from one table: (4p)^2 calls, not twice
    # that; the table rows may run in worker processes, so each call appends
    # one line to a file rather than to a list of this process
    from nichols_fusion import fusion as fu

    log = tmp_path / "calls"
    fuse = fu.fuse_simples

    def counted(*args):
        with open(log, "a") as fh:
            fh.write(f"{args}\n")
        return fuse(*args)

    monkeypatch.setattr(fu, "fuse_simples", counted)
    code, out = run_cli(["verify", "--p", "3", "--suite", "fusion"])
    assert code == 0, out
    calls = log.read_text().splitlines()
    assert len(calls) == 144
    assert len(set(calls)) == 144


@pytest.mark.usefixtures("fresh_fields")
def test_loop_defect_is_a_fail_line(monkeypatch):
    # sigma_2 wrong on the second floor makes chi non-scalar on simple modules
    from nichols_fusion import loop as lp

    scalar = lp.sigma2_scalar_one_vertex

    def broken(K, a, t):
        out = scalar(K, a, t)
        return out + K.one if t == 1 else out

    monkeypatch.setattr(lp, "sigma2_scalar_one_vertex", broken)
    code, out = run_cli(["verify", "--p", "3", "--suite", "loop"])
    assert code == 2
    line = next(ln for ln in out.splitlines() if ln.startswith("FAIL loop.chi_scalar_on_simples "))
    failing = re.search(r"\((\d+) failing\)", line)
    assert failing and int(failing.group(1)) > 1, line


@pytest.mark.usefixtures("fresh_fields")
def test_braiding_defect_is_a_fail_line(monkeypatch):
    # a one-vertex coefficient without its vanishing q-binomial lands on s >= p
    from nichols_fusion import ydspace as yds

    monkeypatch.setattr(yds, "_c1", lambda K, a, s, r: K.one)
    code, out = run_cli(["verify", "--p", "3", "--suite", "braiding"])
    assert code == 2
    fails = [ln for ln in out.splitlines() if ln.startswith("FAIL braiding.")]
    assert any("raised: nonzero coefficient on out-of-range" in ln for ln in fails), out


@pytest.mark.usefixtures("fresh_fields")
def test_fusion_extension_defect_is_a_fail_line(monkeypatch):
    # an L -> P extension top vector that is not in the fused image breaks the
    # fusion theorem; the FAIL line must not depend on python -O
    from nichols_fusion import fusion as fu
    from nichols_fusion import ydspace as yds

    monkeypatch.setattr(
        fu,
        "top_extension_vector",
        lambda K, a, b, u, r: {yds.two_vertex(a, b, K.p - 1, K.p - 1): K.one},
    )
    code, out = run_cli(["verify", "--p", "3", "--suite", "fusion"])
    assert code == 2
    assert "FAIL fusion.theorem_both_paths " in out

    script = (
        "import sys\n"
        "from nichols_fusion import fusion as fu, ydspace as yds\n"
        "fu.top_extension_vector = (\n"
        "    lambda K, a, b, u, r: {yds.two_vertex(a, b, K.p - 1, K.p - 1): K.one})\n"
        "from nichols_fusion.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "verify", "--p", "3", "--suite", "fusion", "--no-cache"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "FAIL fusion.theorem_both_paths " in proc.stdout


@pytest.mark.usefixtures("fresh_fields")
def test_yd_images_are_built_as_r_grows(monkeypatch):
    # an F(2) image that raises must surface at instance 3 (r = 2) of the first
    # two-vertex vector, not at r = 0 as an eager build would report it; the
    # FAIL lines must not depend on python -O
    from nichols_fusion import ydspace as yds
    from nichols_fusion.linalg import VerificationError

    act = yds.act_Fr_basis

    def broken(K, r, bv):
        if r == 2 and bv.nvertex == 2:
            raise VerificationError("planted at r = 2")
        return act(K, r, bv)

    detail = "[first failure: instance 3 (1 failing); instance 3 raised: planted at r = 2]"
    want = [f"FAIL yd.{name} (checks=3)  {detail}" for name in ("two_vertex", "closed_form_action")]
    monkeypatch.setattr(yds, "act_Fr_basis", broken)
    code, out = run_cli(["verify", "--p", "3", "--suite", "yd"])
    assert code == 2, out
    assert [ln for ln in out.splitlines() if ln.startswith("FAIL ")] == want, out

    script = (
        "import sys\n"
        "from nichols_fusion import ydspace as yds\n"
        "from nichols_fusion.linalg import VerificationError\n"
        "act = yds.act_Fr_basis\n"
        "def broken(K, r, bv):\n"
        "    if r == 2 and bv.nvertex == 2:\n"
        "        raise VerificationError('planted at r = 2')\n"
        "    return act(K, r, bv)\n"
        "yds.act_Fr_basis = broken\n"
        "from nichols_fusion.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "verify", "--p", "3", "--suite", "yd", "--no-cache"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert [ln for ln in proc.stdout.splitlines() if ln.startswith("FAIL ")] == want, proc.stdout


def test_code_change_misses_the_cache(tmp_path):
    # a private copy of the package, run in child processes sharing one cache
    pkg = tmp_path / "src" / "nichols_fusion"
    shutil.copytree(Path(cli.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(pkg.parent), PYTHONDONTWRITEBYTECODE="1")
    env.pop("NICHOLS_FUSION_CACHE_DIR", None)
    cmd = [sys.executable, *["-O"] * sys.flags.optimize, "-m", "nichols_fusion.cli",
           "verify", "--p", "3", "--suite", "fusion", "--cache-dir", str(tmp_path / "cache")]

    def verify():
        return subprocess.run(cmd, env=env, cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)

    first = verify()
    assert first.returncode == 0, first.stderr
    assert "3/3 checks passed" in first.stdout

    fusion = pkg / "fusion.py"
    text = fusion.read_text()
    assert text.count("    nu = (nu1 + nu2) % 4\n") == 1
    fusion.write_text(text.replace("    nu = (nu1 + nu2) % 4\n", "    nu = (nu1 + nu2 + 1) % 4\n"))
    second = verify()
    assert second.returncode == 2, second.stderr
    assert "FAIL fusion.theorem_both_paths " in second.stdout
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_source_digest_is_sha256():
    import hashlib

    h = cli._sha256()
    h.update(b"nichols")
    assert h.hexdigest() == hashlib.sha256(b"nichols").hexdigest()
    assert len(cli._source_digest()) == 64


def _negated(fn):
    return lambda K, *args: -fn(K, *args)


def _times_q(fn):
    # a (scalar, basis vector) result has its scalar multiplied
    def broken(K, *args):
        out = fn(K, *args)
        if isinstance(out, tuple):
            return (K.q_pow(1) * out[0], *out[1:])
        return K.q_pow(1) * out

    return broken


def _negated_vector(fn):
    return lambda K, *args: {key: -c for key, c in fn(K, *args).items()}


def _times_q_vector(fn):
    return lambda K, *args: {key: K.q_pow(1) * c for key, c in fn(K, *args).items()}


def _extra_unit_at_2_3(fn):
    def broken(p, r1, nu1, r2, nu2):
        out = fn(p, r1, nu1, r2, nu2)
        if (r1, r2) == (2, 3):
            out[(1, 0)] = out.get((1, 0), 0) + 1
        return out

    return broken


def _b_cells_as_x(fn):
    def broken(p, a, b, t):
        d = fn(p, a, b, t)
        return replace(d, kind="X") if d.kind == "B" else d

    return broken


def _nu_shifted(fn):
    return lambda p, *key: tuple(replace(d, nu=(d.nu + 1) % 4) for d in fn(p, *key))


def _top_corner(fn):
    from nichols_fusion import ydspace as yds

    return lambda K, a, b, u, r: {yds.two_vertex(a, b, K.p - 1, K.p - 1): K.one}


# (module, closed form, defect): each defect must cost at least one FAIL line
MUTANTS = [
    ("loop", "lambda_closed", _negated),
    ("loop", "mu_closed", _negated),
    ("fusionring", "_basis_product", _extra_unit_at_2_3),
    ("classify", "classify_coinvariant", _b_cells_as_x),
    ("ydspace", "_c1", _negated),
    ("ydspace", "_c2", _negated),
    ("ydspace", "act_Fr_basis", _negated_vector),
    ("ydspace", "ribbon", _negated_vector),
    ("ydspace", "ribbon_scalar", _negated),
    ("fusion", "monodromy_closed_form", _negated_vector),
    ("fusion", "fuse_closed", _nu_shifted),
    ("fusion", "top_extension_vector", _top_corner),
    ("nichols", "antipode_coeff", _negated),
    ("loop", "ev_one_vertex", _negated),
    ("loop", "dual_act_U", _negated),
    ("ydspace", "braid_B_inv", _negated_vector),
    # a negated _c1 cancels in the product of two that is _c2; x q does not
    pytest.param("ydspace", "_c1", _times_q, id="_c1_times_q"),
    # each map below reads or fills images cached per sector, or sums cached
    # per check; a negated braid_B cancels in B^2 = B B, x q does not
    pytest.param("fusion", "monodromy_closed_form", _times_q_vector,
                 id="monodromy_closed_form_times_q"),
    pytest.param("ydspace", "braid_B", _times_q_vector, id="braid_B_times_q"),
    pytest.param("fusion", "fusion_map_basis", _times_q_vector, id="fusion_map_basis_times_q"),
    pytest.param(
        "loop", "dual_identification_two_vertex", _times_q,
        id="dual_identification_two_vertex_times_q",
        marks=pytest.mark.xfail(
            strict=True,
            reason="unearned PASS: duality.dual_basis_two_vertex has the scalar on both"
            " sides, so a constant factor cancels and no check pins the two-vertex dual"
            " normalization",
        ),
    ),
]


@pytest.mark.usefixtures("fresh_fields")
@pytest.mark.parametrize(
    "module, name, defect", MUTANTS,
    ids=[m[1] if type(m) is tuple else None for m in MUTANTS],  # a pytest.param has its id
)
def test_mutated_closed_form_is_a_fail_line(monkeypatch, module, name, defect):
    import importlib

    mod = importlib.import_module(f"nichols_fusion.{module}")
    monkeypatch.setattr(mod, name, defect(getattr(mod, name)))
    code, out = run_cli(["verify", "--p", "3", "--suite", "all"])
    assert code == 2, out
    assert any(ln.startswith("FAIL ") for ln in out.splitlines()), out


@pytest.mark.usefixtures("fresh_fields")
def test_decompose_defect_is_an_error_payload(monkeypatch):
    # B cells reported as X leave an L without its B partner
    from nichols_fusion import classify as cl

    monkeypatch.setattr(cl, "classify_coinvariant", _b_cells_as_x(cl.classify_coinvariant))
    code, out = run_cli(["decompose", "--p", "3"])
    assert code == 2
    data = json.loads(out)
    assert data["ok"] is False and "has partner" in data["error"]
    code, out = run_cli(["decompose", "--p", "3", "--format", "pretty"])
    assert code == 2
    assert out.splitlines()[1].startswith("FAIL ")
    # the one-vertex space holds no B cell, so its decomposition is unharmed
    args = ["decompose", "--p", "3", "--vertices", "1"]
    code, out = run_cli(args)
    monkeypatch.undo()
    assert (code, out) == run_cli(args)
    assert code == 0


def _cache_entries(cache):
    return sorted(cache.glob("*.json"))


@pytest.mark.parametrize(
    "entry",
    [
        "[]",
        json.dumps({"schema": cli.SCHEMA_VERSION}),
        json.dumps({"schema": cli.SCHEMA_VERSION, "command": "loop", "p": 2, "nu_mod": 2,
                    "ok": True, "table": []}),
        json.dumps({"schema": cli.SCHEMA_VERSION, "command": "fusion", "p": 2, "nu_mod": 4}),
    ],
    ids=["non-dict", "schema-only", "other-command", "head-without-body"],
)
def test_bad_cache_entry_is_rebuilt(tmp_path, entry):
    args = ["fusion", "--p", "2", "--nu-mod", "4"]
    want = run_cli(args)
    assert run_cli(args, cache=tmp_path) == want
    (path,) = _cache_entries(tmp_path)
    for fmt in ("json", "pretty"):
        path.write_text(entry)
        assert run_cli(args + ["--format", fmt], cache=tmp_path) == run_cli(
            args + ["--format", fmt]
        )
        stored = json.loads(path.read_text())
        assert (stored["schema"], stored["command"], stored["p"]) == (
            cli.SCHEMA_VERSION, "fusion", 2,
        )
    assert _cache_entries(tmp_path) == [path]


@pytest.mark.parametrize(
    "args, other",
    [
        (["fusion", "--p", "2", "--nu-mod", "4"], ["fusion", "--p", "2", "--nu-mod", "2"]),
        (["verify", "--p", "2", "--suite", "hopf"], ["verify", "--p", "2", "--suite", "braiding"]),
        (["classify", "--p", "3"], ["classify", "--p", "3", "--a", "0", "--b", "0", "--t", "0"]),
    ],
    ids=["fusion-nu-mod", "verify-suite", "classify-cell-for-table"],
)
def test_cache_entry_for_other_options_is_rebuilt(tmp_path, args, other):
    # an entry for the same command and p but other options is not this request's
    want = run_cli(args)
    assert run_cli(args, cache=tmp_path) == want
    (path,) = _cache_entries(tmp_path)
    entry = json.dumps(json.loads(run_cli(other + ["--format", "json"])[1]), sort_keys=True)
    fresh = json.loads(run_cli(args + ["--format", "json"])[1])
    for fmt in ("json", "pretty"):
        path.write_text(entry)
        assert run_cli(args + ["--format", fmt], cache=tmp_path) == run_cli(
            args + ["--format", fmt]
        )
        assert json.loads(path.read_text()) == fresh
    assert _cache_entries(tmp_path) == [path]


def test_out_in_a_missing_directory_is_refused_before_computing(tmp_path, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("computed before the --out check")

    monkeypatch.setattr(cli, "_payload_verify", unreachable)
    target = tmp_path / "missing" / "report.json"
    code, out = run_cli(["verify", "--p", "5", "--out", str(target)])
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err == f"nichols-fusion: error: --out: {target.parent} is not a directory\n"
    assert not target.parent.exists()


def test_empty_out_is_refused_before_computing(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("computed before the --out check")

    monkeypatch.setattr(cli, "_payload_classify", unreachable)
    code, out = run_cli(["classify", "--p", "3", "--a", "0", "--b", "0", "--t", "0", "--out", ""])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "nichols-fusion: error: --out: the path is empty\n"


def test_empty_cache_dir_is_refused_before_computing(monkeypatch, capsys):
    def unreachable(*args, **kwargs):
        raise AssertionError("computed before the --cache-dir check")

    monkeypatch.setattr(cli, "_payload_classify", unreachable)
    code, out = run_cli(["classify", "--p", "3", "--a", "0", "--b", "0", "--t", "0"], cache="")
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "nichols-fusion: error: --cache-dir: the path is empty\n"


def test_out_that_cannot_be_written_is_one_error_line(tmp_path):
    argv = ["classify", "--p", "3", "--a", "0", "--b", "0", "--t", "0", "--no-cache"]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "nichols_fusion.cli", *argv, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stdout == run_cli(argv[:-1])[1]  # the report still reaches stdout
    assert proc.stderr.startswith("nichols-fusion: error: --out: cannot write ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, line",
    [
        (["fusion", "--p", "2", "--nu-mod", "4"], "X(2)_0 x X(2)_0 = P(1)_0"),
        (["classify", "--p", "5", "--a", "0", "--b", "0", "--t", "2"], "(a=0, b=0, t=2) -> L(2)_1"),
        (["classify", "--p", "5"], "(a=1, b=4, t=0) -> L(1)_-1"),
        (["loop", "--p", "2"], "lambda(Y=X(1)_0; Z=X(1)_1) = -1+0j  mu=0+0j"),
        (["loop", "--p", "2"], "lambda(Y=X(2)_0; Z=X(1)_0) = 1+0j"),
    ],
    ids=["fusion", "classify-cell", "classify-table", "loop", "loop-steinberg"],
)
def test_pretty_tables(args, line):
    code, out = run_cli(args + ["--format", "pretty"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"# {args[0]} p={args[2]} ({cli.SCHEMA_VERSION})"
    assert line in lines


def test_csv_quotes_nested_cells_and_leaves_missing_ones_empty():
    import csv

    code, out = run_cli(["loop", "--p", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    table = json.loads(run_cli(["loop", "--p", "2"])[1])["table"]
    assert len(rows) == len(table)
    for row, want in zip(rows, table):
        assert json.loads(row["lambda"]) == want["lambda"]
        # no mu at r' = p: that cell is empty
        assert row["mu"] == ("" if want["rp"] == 2 else json.dumps(want["mu"], sort_keys=True))
    assert '"{""approx"": [""1"", ""0""], ""den"": 1, ""zeta_coeffs"": [1, 0, 0, 0]}"' in out


def test_cache_directory_choice(tmp_path, monkeypatch):
    argv = ["fusion", "--p", "2"]
    want = run_cli(argv)
    env_dir, flag_dir, home = tmp_path / "env", tmp_path / "flag", tmp_path / "home"
    monkeypatch.setenv("NICHOLS_FUSION_CACHE_DIR", str(env_dir))
    monkeypatch.setenv("HOME", str(home))

    def cached_run(extra):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv + extra)
        return code, buf.getvalue()

    assert cached_run([]) == want
    assert len(_cache_entries(env_dir)) == 1
    assert cached_run(["--cache-dir", str(flag_dir)]) == want  # the flag wins
    assert len(_cache_entries(flag_dir)) == 1 and len(_cache_entries(env_dir)) == 1
    monkeypatch.delenv("NICHOLS_FUSION_CACHE_DIR")
    assert cached_run([]) == want
    assert len(_cache_entries(home / ".cache" / "nichols-fusion")) == 1


def test_unwritable_cache_directory_is_ignored(tmp_path):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    argv = ["verify", "--p", "2", "--suite", "ring"]
    assert run_cli(argv, cache=blocker) == run_cli(argv)
    assert blocker.read_text() == ""


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_verify_equals_the_recorded_json(p):
    # the recorded outputs that CI diffs a fresh run against
    want = (Path(__file__).parent / "data" / f"verify_p{p}_all.json").read_text()
    assert run_cli(["verify", "--p", str(p), "--suite", "all", "--format", "json"]) == (0, want)


@pytest.mark.parametrize("name, args", [
    ("fusion_p4_nu4", ["fusion", "--nu-mod", "4"]),
    ("fusion_p4", ["fusion"]),
    ("classify_p4", ["classify"]),
    ("decompose_p4_v1", ["decompose", "--vertices", "1"]),
    ("decompose_p4_v2", ["decompose", "--vertices", "2"]),
])
def test_table_command_equals_the_recorded_json(name, args):
    # the recorded p = 4 outputs of the table commands; fusion's rows come from
    # fusion_table's summand tuples
    want = (Path(__file__).parent / "data" / f"{name}.json").read_text()
    assert run_cli(args + ["--p", "4", "--format", "json"]) == (0, want)


def _payload_of(argv):
    """The payload that main hands to _render for argv, computed uncached."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_render", lambda payload, fmt, out: seen.append(payload))
        main(argv + ["--no-cache"])
    (payload,) = seen
    return payload


class _Pieces(list):
    """A text stream that keeps each piece written to it."""

    write = list.append


def _assert_pieces_join_to_json_dumps(payload):
    report = _Pieces()
    cli._render(payload, "json", report)
    assert "".join(report) == json.dumps(
        payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
    entry = _Pieces()
    cli._dump_compact(payload, entry.write)
    assert "".join(entry) == json.dumps(payload, sort_keys=True)


_COMMANDS = {
    "fusion": ["fusion"],
    "fusion-nu4": ["fusion", "--nu-mod", "4"],
    "decompose-v1": ["decompose", "--vertices", "1"],
    "decompose-v2": ["decompose"],
    "classify-table": ["classify"],
    "classify-cell": ["classify", "--a", "1", "--b", "2", "--t", "1"],
    "loop": ["loop"],
    "loop-nu4": ["loop", "--nu-mod", "4"],
}


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("name", _COMMANDS)
def test_written_pieces_join_to_json_dumps(name, p):
    _assert_pieces_join_to_json_dumps(_payload_of(_COMMANDS[name] + ["--p", str(p)]))


@pytest.mark.parametrize("p", [2, 3, 4])
def test_written_verify_pieces_join_to_json_dumps(p):
    # the recorded report holds the payload of verify --suite all
    recorded = (Path(__file__).parent / "data" / f"verify_p{p}_all.json").read_text()
    _assert_pieces_join_to_json_dumps(json.loads(recorded))


@pytest.mark.usefixtures("fresh_fields")
def test_written_error_and_empty_pieces_join_to_json_dumps(monkeypatch):
    from nichols_fusion import classify as cl

    head = {"schema": cli.SCHEMA_VERSION, "command": "loop", "p": 2, "nu_mod": 2}
    _assert_pieces_join_to_json_dumps({**head, "ok": True, "table": []})
    monkeypatch.setattr(cl, "classify_coinvariant", _b_cells_as_x(cl.classify_coinvariant))
    payload = _payload_of(["decompose", "--p", "3"])
    assert payload["ok"] is False and "has partner" in payload["error"]
    _assert_pieces_join_to_json_dumps(payload)


# strings with non-ASCII characters, quotes, backslashes and newlines
_json_text = st.text(st.characters() | st.sampled_from('"\\\n\té\u2603\U0001f600'), max_size=6)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _json_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_json_text, _json_values, min_size=1, max_size=5))
def test_written_pieces_of_any_payload_join_to_json_dumps(payload):
    _assert_pieces_join_to_json_dumps(payload)


class _CharCount:
    """A sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.n = 0

    def write(self, piece):
        self.n += len(piece)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_and_cache_entry_are_written_one_row_at_a_time():
    # a report rendered whole holds several times its own length (about 8.7x
    # at loop --p 11 --nu-mod 4); written a row or less at a time, it holds
    # only a piece
    payload = _payload_of(["loop", "--p", "6", "--nu-mod", "4"])
    sink = _CharCount()
    peak = _peak_bytes(lambda: cli._render(payload, "json", sink))
    assert sink.n == len(json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)) + 1
    assert peak < sink.n / 4, (peak, sink.n)
    sink = _CharCount()
    peak = _peak_bytes(lambda: cli._dump_compact(payload, sink.write))
    assert sink.n == len(json.dumps(payload, sort_keys=True))
    assert peak < sink.n / 4, (peak, sink.n)


@pytest.mark.parametrize("error", [OSError(errno.ENOSPC, "No space left on device"),
                                   RuntimeError("interrupted")], ids=["OSError", "RuntimeError"])
def test_cache_write_that_fails_partway_leaves_nothing(tmp_path, monkeypatch, error):
    # the cache entry's writer raises after its first piece
    dump = cli._dump_compact

    def failing(payload, write):
        written = []

        def write_once(piece):
            if written:
                raise error
            written.append(piece)
            write(piece)

        dump(payload, write_once)

    argv = ["fusion", "--p", "2"]
    want = run_cli(argv)
    monkeypatch.setattr(cli, "_dump_compact", failing)
    if isinstance(error, OSError):
        assert run_cli(argv, cache=tmp_path) == want
    else:
        with pytest.raises(RuntimeError):
            run_cli(argv, cache=tmp_path)
    assert list(tmp_path.iterdir()) == []
