"""Command-line frontend.

Commands
    fusion     full fusion table for all (r1, nu1, r2, nu2); exit 2 if the
               closed-form and brute-force paths ever disagree
    decompose  decomposition of the 1- or 2-vertex space
    classify   module generated from a coinvariant (or the whole table)
    loop       tables of loop eigenvalues lambda and nilpotent coefficients mu
    verify     run a verification suite, one pass/fail line per check

Exit codes: 0 success, 1 usage error, 2 verification failure.
Output is deterministic (sorted keys, fixed float formatting); results are
cached as JSON, one file per request (command, p, options) and sha256 of the
package sources, under --cache-dir, NICHOLS_FUSION_CACHE_DIR, or
~/.cache/nichols-fusion.  A report and a cache entry are written a few rows
at a time, so a command's peak memory is its payload's, not its text's.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from .cyclo import cyclotomic_field
from . import classify as cl
from . import loop as lp
from .fusion import fusion_table
from .suites import run_suite, SUITES
from .linalg import VerificationError

SCHEMA_VERSION = "nichols-fusion/1"
DEFAULT_MAX_P = 12
# the json report's encoder chunks joined into one write: stdout may be
# unbuffered (python -u, PYTHONUNBUFFERED), where each write is a system call
_CHUNKS_PER_WRITE = 256
# the common options that shape how a report is delivered, not what it holds;
# every other option is part of the request
_DELIVERY = ("max_p", "format", "out", "cache_dir", "no_cache")
# the keys of each command's body besides "ok", one set per form (a failed
# decompose holds only its error; classify gives one cell or the table)
_BODY = {"fusion": [{"table"}], "loop": [{"table"}], "verify": [{"checks"}],
         "decompose": [{"summands", "dimension"}, {"error"}],
         "classify": [{"kind", "r", "nu", "nu_raw"}, {"table"}]}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which we reserve for
    # verification failures)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def scalar_json(x) -> dict:
    approx = x.evalf()
    return {
        "zeta_coeffs": list(x.num),
        "den": x.den,
        "approx": [f"{approx.real:.12g}", f"{approx.imag:.12g}"],
    }


def _payload_fusion(p: int, nu_mod: int) -> dict:
    table = []
    for (r1, nu1, r2, nu2), res in fusion_table(p, range(nu_mod)).items():
        row = {"r1": r1, "nu1": nu1, "r2": r2, "nu2": nu2}
        if isinstance(res, tuple):
            row["summands"] = sorted(
                ({"kind": d.kind, "r": d.r, "nu": d.nu % nu_mod} for d in res),
                key=lambda d: (d["kind"], d["r"], d["nu"]),
            )
        else:
            row["error"] = str(res)
        table.append(row)
    return {"ok": not any("error" in row for row in table), "table": table}


def _payload_decompose(p: int, vertices: int) -> dict:
    try:
        counts, dim = cl.decompose_space(p, vertices)
    except VerificationError as exc:
        return {"ok": False, "error": str(exc)}
    summands = [
        {"kind": kind, "r": r, "mult": mult}
        for (kind, r), mult in sorted(counts.items())
    ]
    return {
        "summands": summands,
        "dimension": dim,
        "ok": cl.decomposition_ok(p, vertices, counts, dim),
    }


def _desc_json(d: cl.ModuleDescriptor) -> dict:
    return {"kind": d.kind, "r": d.r, "nu": d.nu % 4, "nu_raw": d.nu}


def _payload_classify(p: int, a, b, t) -> dict:
    if a is not None:  # main has checked that a, b and t come together
        return {"ok": True, **_desc_json(cl.classify_coinvariant(p, a, b, t))}
    grid = cl.classification_grid(p)
    table = [
        {"a": a0, "b": b0, "t": t0, **_desc_json(d)}
        for (a0, b0, t0), d in sorted(grid.items())
    ]
    return {"ok": True, "table": table}


def _payload_loop(p: int, nu_mod: int) -> dict:
    K = cyclotomic_field(p)
    rows = []
    for rp in range(1, p + 1):
        for nup in range(nu_mod):
            for r in range(1, p + 1):
                for nu in range(nu_mod):
                    row = {
                        "rp": rp,
                        "nup": nup,
                        "r": r,
                        "nu": nu,
                        "lambda": scalar_json(lp.lambda_closed(K, rp, nup, r, nu)),
                    }
                    if rp <= p - 1:
                        row["mu"] = scalar_json(lp.mu_closed(K, rp, nup, r, nu))
                    rows.append(row)
    return {"ok": True, "table": rows}


def _payload_verify(p: int, suite: str) -> dict:
    results = run_suite(p, suite)
    checks = [
        {"name": c.name, "ok": c.ok, "count": c.count, "detail": c.detail}
        for c in results
    ]
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


def _dump_compact(payload: dict, write):
    """Write json.dumps(payload, sort_keys=True) through write, one top-level
    value or one list element (a row) at a time, each piece as soon as it is
    made; payload holds at least one key (every payload has its head).

    The stdlib's compact encoder runs in C only for a whole dump (json.dump
    streams through the pure-Python one, about three times slower), so each
    row is its own json.dumps and no more than one row's text is held.
    """
    for i, key in enumerate(sorted(payload)):
        write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
        value = payload[key]
        if isinstance(value, list) and value:
            for j, row in enumerate(value):
                write(("[" if j == 0 else ", ") + json.dumps(row, sort_keys=True))
            write("]")
        else:
            write(json.dumps(value, sort_keys=True))
    write("}")


def _render(payload: dict, fmt: str, out):
    """Write the report of payload in fmt to the text stream out, a few rows
    or less at a time: json as the chunks of the stdlib's indenting encoder
    (pure Python, whole dump or not; a new encoder per row would leave a
    reference cycle per row to the collector), _CHUNKS_PER_WRITE to a write,
    csv and pretty one line at a time."""
    if fmt == "json":
        encoder = json.JSONEncoder(sort_keys=True, separators=(",", ": "), indent=1)
        chunks = []
        for chunk in encoder.iterencode(payload):
            chunks.append(chunk)
            if len(chunks) == _CHUNKS_PER_WRITE:
                out.write("".join(chunks))
                chunks.clear()
        out.write("".join(chunks) + "\n")
        return
    if fmt == "csv":
        rows = payload.get("table") or payload.get("summands") or payload.get("checks") or [payload]
        cols = sorted({k for row in rows for k in row})
        out.write(",".join(cols) + "\n")
        for row in rows:
            out.write(",".join(_csv_cell(row.get(c)) for c in cols) + "\n")
        return
    for line in _pretty_lines(payload):
        out.write(line + "\n")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (dict, list)):
        return '"' + json.dumps(v, sort_keys=True).replace('"', '""') + '"'
    return str(v)


def _pretty_lines(payload: dict):
    cmd = payload["command"]
    yield f"# {cmd} p={payload['p']} ({payload['schema']})"
    if cmd == "verify":
        for c in payload["checks"]:
            status = "PASS" if c["ok"] else "FAIL"
            extra = f"  [{c['detail']}]" if c["detail"] else ""
            yield f"{status} {c['name']} (checks={c['count']}){extra}"
        good = sum(1 for c in payload["checks"] if c["ok"])
        yield f"{good}/{len(payload['checks'])} checks passed"
    elif cmd == "fusion":
        for row in payload["table"]:
            if "error" in row:
                rhs = f"DISAGREE: {row['error']}"
            else:
                rhs = " + ".join(
                    f"{d['kind']}({d['r']})_{d['nu']}" for d in row["summands"]
                )
            yield f"X({row['r1']})_{row['nu1']} x X({row['r2']})_{row['nu2']} = {rhs}"
    elif cmd == "decompose" and "error" in payload:
        yield f"FAIL {payload['error']}"
    elif cmd == "decompose":
        for s in payload["summands"]:
            yield f"{s['mult']} x {s['kind']}[{s['r']}]"
        yield f"total dimension {payload['dimension']}"
    elif cmd == "classify":
        for row in payload.get("table") or [payload]:
            yield (f"(a={row['a']}, b={row['b']}, t={row['t']}) -> "
                   f"{row['kind']}({row['r']})_{row['nu_raw']}")
    elif cmd == "loop":
        for row in payload["table"]:
            mu = row.get("mu")
            mu_txt = f"  mu={_scalar_txt(mu)}" if mu else ""
            yield (f"lambda(Y=X({row['rp']})_{row['nup']}; Z=X({row['r']})_{row['nu']}) = "
                   f"{_scalar_txt(row['lambda'])}{mu_txt}")


def _scalar_txt(s: dict) -> str:
    return f"{s['approx'][0]}{'+' if not s['approx'][1].startswith('-') else ''}{s['approx'][1]}j"


def _sha256():
    # CPython's own sha256 module, as its random module does: hashlib loads
    # OpenSSL, about 3.7 MiB more peak RSS for every cached run.  The name is
    # chosen by version because a failed import scans, and caches, every
    # directory on sys.path.
    try:
        mod = importlib.import_module("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    except ImportError:  # not CPython
        import hashlib as mod
    return mod.sha256()


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 of the package's *.py sources: a code change is a cache miss."""
    h = _sha256()
    for src in sorted(Path(__file__).resolve().parent.glob("*.py")):
        h.update(src.name.encode() + b"\0" + src.read_bytes() + b"\0")
    return h.hexdigest()


def _write_atomic(path: Path, payload: dict):
    """Store payload at path as compact JSON, written one row at a time
    (_dump_compact) into a temporary file that is then renamed into place.

    Readers see either no file or a whole one, never a partial write, and a
    write that raises leaves neither; the temporary name is per process, so
    concurrent writers do not collide.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            _dump_compact(payload, fh.write)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cached(args, request: dict, build):
    """The payload for request: build(p, **options) headed by the request's
    set fields, or the cache entry stored for the request.

    The entry's file name comes from the request's set fields.  The entry is
    used only if it is a JSON object that holds every field of the request
    (its schema, command, p and options), an unset (None) option by not
    having it, a boolean "ok" and its command's body (_BODY); any other entry
    is rebuilt and stored over whatever it held.
    """
    head = {k: v for k, v in request.items() if v is not None}
    params = {k: v for k, v in request.items() if k not in ("schema", "command")}
    if args.no_cache:
        return {**head, **build(**params)}
    cdir = Path(args.cache_dir or os.environ.get("NICHOLS_FUSION_CACHE_DIR")
                or Path.home() / ".cache" / "nichols-fusion")
    name = "-".join(f"{k}{v}" for k, v in head.items() if k in params)
    path = cdir / f"{request['command']}-{name}-{_source_digest()}.json"
    try:
        stored = json.loads(path.read_text())
    except (ValueError, OSError):
        stored = None
    if (isinstance(stored, dict) and all(stored.get(k) == v for k, v in request.items())
            and isinstance(stored.get("ok"), bool)
            and any(keys <= stored.keys() for keys in _BODY[request["command"]])):
        return stored
    payload = {**head, **build(**params)}
    try:
        cdir.mkdir(parents=True, exist_ok=True)
        _write_atomic(path, payload)
    except OSError:
        pass
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nichols-fusion", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--p", type=int, required=True, help="the parameter p >= 2")
        sp.add_argument("--max-p", type=int, default=DEFAULT_MAX_P,
                        help="refuse p above this cap (runtime guard)")
        sp.add_argument("--format", choices=("json", "csv", "pretty"), default=None,
                        help="default: pretty for verify, json otherwise")
        sp.add_argument("--out", help="also write the report to this path")
        sp.add_argument("--cache-dir", help="cache directory override")
        sp.add_argument("--no-cache", action="store_true")

    sp = sub.add_parser("fusion", help="fusion table of simple modules")
    common(sp)
    sp.add_argument("--nu-mod", type=int, choices=(2, 4), default=2)

    sp = sub.add_parser("decompose", help="decompose the 1- or 2-vertex space")
    common(sp)
    sp.add_argument("--vertices", type=int, choices=(1, 2), default=2)

    sp = sub.add_parser("classify", help="classify coinvariants")
    common(sp)
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--t", type=int)

    sp = sub.add_parser("loop", help="loop eigenvalue tables")
    common(sp)
    sp.add_argument("--nu-mod", type=int, choices=(2, 4), default=2)

    sp = sub.add_parser("verify", help="run verification suites")
    common(sp)
    sp.add_argument("--suite", default="all", choices=tuple(SUITES) + ("all",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.p < 2:
        parser.error("p must be at least 2")
    if args.p > args.max_p:
        parser.error(f"p={args.p} exceeds the cap {args.max_p} (raise with --max-p)")
    if args.out == "":
        parser.error("--out: the path is empty")
    if args.cache_dir == "":
        parser.error("--cache-dir: the path is empty")
    if args.out and not Path(args.out).parent.is_dir():
        parser.error(f"--out: {Path(args.out).parent} is not a directory")
    if args.command == "classify":
        given = [x is not None for x in (args.a, args.b, args.t)]
        if any(given) and not all(given):
            parser.error("--a, --b, --t must be given together")
        if args.t is not None and not 0 <= args.t <= args.p - 1:
            parser.error("t must lie in [0, p-1]")

    request = {"schema": SCHEMA_VERSION,
               **{k: v for k, v in vars(args).items() if k not in _DELIVERY}}
    # looked up at call time, so a rebound _payload_<command> is the one run
    build = {"fusion": _payload_fusion, "decompose": _payload_decompose,
             "classify": _payload_classify, "loop": _payload_loop,
             "verify": _payload_verify}[args.command]
    payload = _cached(args, request, build)

    fmt = args.format or ("pretty" if args.command == "verify" else "json")
    _render(payload, fmt, sys.stdout)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                _render(payload, fmt, fh)
        except OSError as exc:
            parser.error(f"--out: cannot write {args.out}: {exc.strerror or exc}")
    return 0 if payload["ok"] else 2


if __name__ == "__main__":
    sys.exit(main())
