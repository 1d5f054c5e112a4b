"""Source-level guards over the cycloff package."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import types

import cycloff

SRC = pathlib.Path(cycloff.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so a check that carries proof must raise
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_acceptance_passes_under_python_O():
    # -O strips every assert in the package; pytest still rewrites the
    # test file's own asserts, so the headline checks keep their force
    tests = pathlib.Path(__file__).resolve().parent
    path = [str(SRC.parent)] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(tests / "test_acceptance.py")],
        cwd=tests.parent, env=env, capture_output=True, text=True,
        timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert " passed" in run.stdout and "failed" not in run.stdout


def test_every_module_constant_is_read():
    # a module-level UPPER_CASE name that nothing in the package reads is
    # a reserved knob that does nothing
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined = {t.id: name for name, tree in trees.items()
               for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)
               and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert sorted(f"{mod}:{name}" for name, mod in defined.items()
                  if name not in read) == []


def test_every_traced_name_resolves():
    # perfbench/spans.py patches these names from outside the package, so a
    # rename or deletion must fail here, not later under --trace 1; the file
    # is compiled from its text, so nothing is written next to it
    path = (pathlib.Path(__file__).resolve().parent.parent / "perfbench"
            / "spans.py")
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         spans.__dict__)
    assert spans.TARGETS
    missing = []
    for module, attr, name, _ in spans.TARGETS:
        try:
            if not callable(spans._resolve(module, attr)):
                missing.append(name)
        except (ImportError, AttributeError, KeyError):
            missing.append(name)
    assert missing == []
