"""Source-level guards over the cycloff package."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import types
from collections import Counter

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


def _package_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _names_read(*nodes):
    read = Counter()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
    return read


def test_every_module_constant_is_read():
    # a module-level UPPER_CASE name that nothing in the package reads is
    # a reserved knob that does nothing
    trees = _package_trees()
    defined = {t.id: name for name, tree in trees.items()
               for node in tree.body if isinstance(node, ast.Assign)
               for t in node.targets if isinstance(t, ast.Name)
               and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", t.id)}
    read = _names_read(*trees.values())
    assert defined
    assert sorted(f"{mod}:{name}" for name, mod in defined.items()
                  if name not in read) == []


def test_every_private_helper_is_referenced():
    # a module-level _function or _Class, or a _method, that nothing in the
    # package names outside its own body is an orphan left behind by a
    # deletion
    trees = _package_trees()
    defs = (ast.FunctionDef, ast.ClassDef)
    private = re.compile(r"_(?!_).*")
    defined = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and private.fullmatch(node.name):
                defined.append((f"{mod}:{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{mod}:{node.name}.{item.name}", item)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and private.fullmatch(item.name)]
    read = _names_read(*trees.values())
    assert defined
    assert [where for where, node in defined
            if read[node.name] == _names_read(node)[node.name]] == []


def test_every_error_class_is_named_elsewhere():
    # a CycloffError subclass that no other module names (raises, builds
    # or catches) is a code that no run can report
    trees = _package_trees()
    errors = trees.pop("errors.py")
    classes = [node.name for node in errors.body
               if isinstance(node, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id == "CycloffError"
                       for b in node.bases)]
    read = _names_read(*trees.values())
    assert classes
    assert [name for name in classes if not read[name]] == []


def test_one_square_and_multiply_loop():
    # every power goes through gf.power, so its e >>= 1 is the only one; a
    # second would be a new copy of the loop
    trees = _package_trees()
    shifts = [(mod, node.lineno) for mod, tree in trees.items()
              for node in ast.walk(tree) if isinstance(node, ast.AugAssign)
              and isinstance(node.op, ast.RShift)]
    power = next(node for node in trees["gf.py"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "power")
    assert len(shifts) == 1
    mod, line = shifts[0]
    assert mod == "gf.py" and power.lineno <= line <= power.end_lineno


def test_no_function_in_the_package_calls_compose():
    # autgroup.compose is the group law of the test oracles: every order is
    # read in closed form and the closure composes permutations, so a
    # compose in the package, called or passed on (as to gf.power), would
    # build an Aut that no product path needs
    trees = _package_trees()
    assert any(isinstance(node, ast.FunctionDef) and node.name == "compose"
               for node in trees["autgroup.py"].body)
    sites = [f"{mod}:{node.lineno}" for mod, tree in trees.items()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "compose")
             or (isinstance(node, ast.Attribute) and node.attr == "compose"
                 and isinstance(node.value, ast.Name)
                 and node.value.id in ("autgroup", "ag"))]
    assert sites == []


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


def test_kernel_forks_only_where_large_fields_reach():
    # a log-table twin is kept only in the five kernels that fields above
    # gf.TABLE_CAP reach: gcds and products over the root-finding fields,
    # evaluations and valuations at extension points; series over fiber
    # fields multiply by the product kernel and cut the result, and RatFunc
    # lives over table fields only, so neither has a twin.  one_root forks
    # once on the kind of its field: with log tables it scans exponents,
    # and a packed field runs the trace splitter on Poly operations
    forks = []
    for mod, tree in _package_trees().items():
        scopes = [(node, f"{outer.name}.{node.name}")
                  for outer in tree.body if isinstance(outer, ast.ClassDef)
                  for node in outer.body
                  if isinstance(node, ast.FunctionDef)]
        scopes += [(node, node.name) for node in tree.body
                   if isinstance(node, ast.FunctionDef)]
        for func, name in scopes:
            forks += [f"{mod}:{name}" for node in ast.walk(func)
                      if isinstance(node, ast.Compare)
                      and isinstance(node.left, ast.Attribute)
                      and node.left.attr == "_zech"
                      and isinstance(node.ops[0], ast.IsNot)]
    assert sorted(forks) == sorted(
        f"polyalg.py:{name}" for name in (
            "Poly.__mul__", "Poly.__divmod__", "Poly.__call__", "poly_gcd",
            "root_multiplicity", "one_root"))


def test_records_compare_only_through_record():
    # Record's __eq__ and __hash__ read the fields through one attrgetter
    # made per class, so a subclass that writes its own is a second copy
    found = [f"{mod}:{node.name}.{item.name}"
             for mod, tree in _package_trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and any(isinstance(b, ast.Name) and b.id == "Record"
                     for b in node.bases)
             for item in node.body if isinstance(item, ast.FunctionDef)
             and item.name in ("__eq__", "__hash__")]
    assert found == []


def test_places_shifts_each_polynomial_in_one_helper():
    # a series precision slices the Taylor shifts taken once per point, so
    # the only .compose( call in places.py is the one in _taylor_shift
    tree = _package_trees()["places.py"]
    scopes = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "compose"]
    assert calls
    owners = {min((f for f in scopes
                   if f.lineno <= call.lineno <= f.end_lineno),
                  key=lambda f: f.end_lineno - f.lineno).name
              for call in calls}
    assert owners == {"_taylor_shift"}


def test_series_are_lifted_from_one_site():
    # divisor settles a tied point from its leading terms and the norm, and
    # sends two or more cancelling places of one fiber to valuation() at one
    # site, so _generic_valuation has valuation() as its only caller
    tree = _package_trees()["places.py"]

    def callers(name):
        return [func.name for func in tree.body
                if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name]

    assert callers("_generic_valuation") == ["valuation"]
    assert callers("valuation").count("divisor") == 1


def test_the_residue_ring_is_embedded_in_one_place():
    # GF(q)[T]/(M) is read from one table of logs in GF(q^2): one one_root
    # of a modulus (M.as_poly()) in the package, and carlitz neither powers
    # nor factors, so no Poly-product order scan or unit arithmetic is left
    trees = _package_trees()
    roots = [f"{mod}:{node.lineno}" for mod, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and _names_read(node.func)["one_root"] and node.args
             and isinstance(node.args[0], ast.Call)
             and _names_read(node.args[0].func)["as_poly"]]
    assert len(roots) == 1 and roots[0].startswith("carlitz.py:")
    banned = ("power", "factorize")
    sites = [node.lineno for node in ast.walk(trees["carlitz.py"])
             if (isinstance(node, ast.Attribute) and node.attr in banned
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "gf")
             or (isinstance(node, ast.ImportFrom)
                 and any(a.name in banned for a in node.names))]
    assert sites == []
