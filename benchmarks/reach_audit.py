"""Reach audit: what of ``src/repro`` the program's own roots exercise.

Runs every root of DESIGN.md §6 in a subprocess under a ``sys.settrace``
hook and reports two things:

- the functions under ``src/repro`` that no root called, with the lines
  of their bodies;
- the ``GarnetConfig`` fields that no root set to a value other than
  their default, read from ``self`` each time ``GarnetConfig.validate``
  runs (every ``Garnet`` validates its config).

The roots are the paper-claim tests (E1–E15, A1–A4) under pytest, every
``examples/*.py``, E16/E17 under pytest in quick mode, E18–E23
``--quick``, and the journey benchmark ``--quick`` untraced and traced
(which also runs ``garnet-broker`` as a subprocess). The audit works on
a temporary copy of the checkout, because E18–E23 rewrite their
committed ``BENCH_*.json`` files. Standard library only; it takes a few
minutes on two cores::

    python3 benchmarks/reach_audit.py

The audit exits non-zero when a root fails, when a ``GarnetConfig``
field that no root sets is not named in :data:`UNSET_EXEMPT` (a knob
nothing runs keeps a code path nothing checks), or when the unreached
defs hold more body lines than :data:`UNREACHED_BODY_LINES`.

Calls made in forked ``cluster.mp`` workers are not collected: they
leave by ``os._exit``, so their exit hooks never run.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``GarnetConfig`` fields allowed to go unset by every root:
#: ``message_latency``, which the ``cluster.mp`` lookahead check reads
#: for as long as that module stays (ROADMAP 13(a)), and
#: ``deployment_secret``, a credential no root should pin.
UNSET_EXEMPT = ("message_latency", "deployment_secret")

#: The body lines of the defs no root reaches, summed. A change that
#: deletes unreached code lowers it; one that adds a path no root runs
#: raises it in its own diff.
UNREACHED_BODY_LINES = 844

#: Installed in every root's interpreter (``PYTHONPATH`` puts its
#: directory first). ``{src}`` and ``{out}`` are filled in per audit.
HOOK = '''\
import atexit, dataclasses, json, os, signal, sys, threading

_SRC, _OUT = {src!r}, {out!r}
_seen, _hit, _set = set(), set(), set()
_validate = None


def _note(config):
    for field in dataclasses.fields(config):
        if field.default is not dataclasses.MISSING:
            default = field.default
        else:
            default = field.default_factory()
        value = getattr(config, field.name)
        if value != default:
            _set.add(field.name)


def _trace(frame, event, arg):
    global _validate
    code = frame.f_code
    if code is _validate:
        _note(frame.f_locals["self"])
    elif code not in _seen:
        _seen.add(code)
        if code.co_filename.startswith(_SRC):
            _hit.add((code.co_filename, code.co_firstlineno, code.co_name))
            if code.co_name == "validate" and code.co_filename.endswith(
                os.path.join("core", "config.py")
            ):
                _validate = code
                _note(frame.f_locals["self"])
    return None


def install():
    sys.settrace(_trace)
    threading.settrace(_trace)


def _dump(*_):
    path = os.path.join(_OUT, f"{{os.getpid()}}.json")
    with open(path, "w") as handle:
        json.dump({{"hit": sorted(_hit), "set": sorted(_set)}}, handle)


def _on_term(signum, frame):
    # The journey stops its broker with SIGTERM.
    _dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


install()
atexit.register(_dump)
signal.signal(signal.SIGTERM, _on_term)
'''

#: A pytest plugin (``-p reach_plugin``): the hook is installed again
#: around each test call, after fixtures, in case a library reset it.
PLUGIN = '''\
import pytest

import sitecustomize


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    sitecustomize.install()
    yield
'''


def roots(repo: Path, scratch: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) for every root, run with ``repo`` as the cwd."""
    python = sys.executable
    pytest = [python, "-m", "pytest", "-q", "-p", "reach_plugin",
              "-p", "no:cacheprovider"]
    benchmarks = repo / "benchmarks"
    claims = [
        str(path.relative_to(repo))
        for path in sorted(benchmarks.glob("bench_e*_*.py"))
        if int(path.name.split("_")[1][1:]) <= 15
    ] + ["benchmarks/bench_ablations.py"]
    found = [("claims E1-E15, A1-A4", pytest + claims)]
    found += [
        (f"example {path.name}", [python, str(path.relative_to(repo))])
        for path in sorted((repo / "examples").glob("*.py"))
    ]
    found.append((
        "E16/E17 quick",
        pytest + ["benchmarks/bench_e16_chaos.py",
                  "benchmarks/bench_e17_overload.py"],
    ))
    for path in sorted(benchmarks.glob("bench_e*_*.py")):
        if 18 <= int(path.name.split("_")[1][1:]) <= 23:
            output = scratch / f"{path.stem}.json"
            found.append((
                f"{path.stem} --quick",
                [python, str(path.relative_to(repo)), "--quick",
                 "--output", str(output)],
            ))
    journey = [python, "benchmarks/journey/run.py", "--quick"]
    found.append(("journey --quick", journey))
    found.append(("journey --quick --trace 1", journey + ["--trace", "1"]))
    return found


def _constant(statement: ast.stmt, kind: type) -> bool:
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, kind)
    )


def functions(src: Path) -> dict[tuple[str, int, str], int]:
    """Every def under ``src`` as (path, first line, name) -> body lines.

    The first line is the first decorator's, as ``co_firstlineno``
    reports it. Body lines run from the first statement after the
    docstring to the end of the def. A stub whose body is only ``...``
    or ``pass`` (a Protocol's or base class's declaration) is left out:
    nothing is meant to run it.
    """
    found = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if len(body) > 1 and _constant(body[0], str):
                body = body[1:]
            if len(body) == 1 and (
                isinstance(body[0], ast.Pass)
                or _constant(body[0], type(Ellipsis))
            ):
                continue
            first = min(
                [node.lineno] + [d.lineno for d in node.decorator_list]
            )
            lines = node.end_lineno - body[0].lineno + 1
            found[(str(path), first, node.name)] = lines
    return found


def audit(repo: Path, scratch: Path) -> dict:
    hook = scratch / "hook"
    out = scratch / "dumps"
    hook.mkdir()
    out.mkdir()
    src = repo / "src" / "repro"
    (hook / "sitecustomize.py").write_text(
        HOOK.format(src=str(src), out=str(out))
    )
    (hook / "reach_plugin.py").write_text(PLUGIN)
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(hook), str(repo / "src")]),
        "GARNET_CHAOS_QUICK": "1",
        "GARNET_OVERLOAD_QUICK": "1",
    }
    failed = []
    for label, argv in roots(repo, scratch):
        print(f"  {label} ...", flush=True)
        done = subprocess.run(
            argv, cwd=repo, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            failed.append(label)
            print(done.stderr[-2000:], file=sys.stderr)
    hit: set[tuple[str, int, str]] = set()
    set_fields: set[str] = set()
    for dump in out.glob("*.json"):
        data = json.loads(dump.read_text())
        hit.update(tuple(entry) for entry in data["hit"])
        set_fields.update(data["set"])
    defs = functions(src)
    unreached = {key: lines for key, lines in defs.items() if key not in hit}
    sys.path.insert(0, str(repo / "src"))
    from repro.core.config import GarnetConfig

    fields = [field.name for field in dataclasses.fields(GarnetConfig)]
    return {
        "failed_roots": failed,
        "functions": len(defs),
        "unreached": [
            {"path": str(Path(path).relative_to(repo)), "line": line,
             "name": name, "body_lines": lines}
            for (path, line, name), lines in sorted(unreached.items())
        ],
        "config_fields": len(fields),
        "config_set": [name for name in fields if name in set_fields],
        "config_unset": [name for name in fields if name not in set_fields],
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        scratch = Path(tmp)
        repo = scratch / "repo"
        shutil.copytree(
            ROOT, repo,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", "*.egg-info", ".pytest_cache",
            ),
        )
        print(f"running roots in {repo}", flush=True)
        report = audit(repo, scratch)
    unreached = report["unreached"]
    unreached_lines = sum(entry["body_lines"] for entry in unreached)
    print(f"\n{len(unreached)} of {report['functions']} functions under "
          f"src/repro ran under no root ({unreached_lines} body lines):")
    for entry in unreached:
        print(f"  {entry['path']}:{entry['line']} {entry['name']} "
              f"({entry['body_lines']})")
    print(f"\nGarnetConfig: {report['config_fields']} fields, "
          f"{len(report['config_set'])} set to a second value by a root.")
    print("never set by a root:", ", ".join(report["config_unset"]) or "none")
    unexempt = [
        name for name in report["config_unset"] if name not in UNSET_EXEMPT
    ]
    if unexempt:
        print("\nnever set by a root and not in UNSET_EXEMPT:",
              ", ".join(unexempt))
    over = unreached_lines > UNREACHED_BODY_LINES
    if over:
        print(f"\nunreached body lines: {unreached_lines}, over the "
              f"UNREACHED_BODY_LINES budget of {UNREACHED_BODY_LINES}")
    if report["failed_roots"]:
        print("\nroots that exited non-zero:",
              ", ".join(report["failed_roots"]))
    return 1 if unexempt or over or report["failed_roots"] else 0


if __name__ == "__main__":
    sys.exit(main())
