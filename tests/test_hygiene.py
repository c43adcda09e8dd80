"""Source hygiene that no installed linter checks: every name a module
imports is used in that module, and every module-level definition in the
package, and every method and property of its classes, is used somewhere
outside its own body, and all but a listed few by the package itself (a
method only where the package reaches it as an attribute);
nothing in the package uses floats, runs Python
source or reads a unit point's value through `exact.numerator`; one
function raises the rule that a code answers only on its own space; and
every code class keeps the `_eval` the benchmark's tracer wraps, and the
tracer installs on the package as it stands."""

import ast
import copy
import importlib
import inspect
import sys
from pathlib import Path

from finecover.gauges import Baire1Code, Baire2Code, ContinuousCode, DirectCode

SRC = Path(__file__).resolve().parent.parent / "src" / "finecover"
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def _quoted_annotations(tree: ast.AST) -> set[str]:
    """Names inside string annotations, which name classes as well."""
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {n.value for ann in filter(None, annotations) for n in ast.walk(ann) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _quoted_annotations(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_every_imported_name_is_used():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[path.name] = unused
    assert not found, found


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined(stmt: ast.stmt) -> set[str]:
    """Names a module-level statement defines, dunders aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, ast.Assign):
        names = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = {stmt.target.id}
    else:
        names = set()
    return {n for n in names if not _is_dunder(n)}


def _units(stmt: ast.stmt):
    """(node, names it defines, names it may use without counting) for a
    module-level statement: a class splits into each of its methods and
    properties, dunders aside, and the rest of its body."""
    own = _defined(stmt)
    if not isinstance(stmt, ast.ClassDef):
        yield stmt, own, own
        return
    methods = [m for m in stmt.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(m.name)]
    for m in methods:
        # a method reaching its own class does not keep the class alive
        yield m, {m.name}, {m.name} | own
    rest = copy.copy(stmt)
    rest.body = [b for b in stmt.body if b not in methods]
    yield rest, own, own


def _referenced(stmt: ast.stmt) -> set[str]:
    """Names a statement reads, imports or reaches as an attribute."""
    names = _quoted_annotations(stmt)
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_definition_is_used_outside_itself():
    """Module-level functions, classes and constants of the package, and
    the methods and properties of its classes, dunders aside."""
    definitions, used = {}, set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for node, own, skip in _units(stmt):
                if path.parent != SRC:
                    own = skip = set()
                definitions.update((name, f"{path.name}:{node.lineno}") for name in own)
                # a recursive function calling itself does not keep it alive
                used |= _referenced(node) - skip
    dead = sorted(f"{where} {name}" for name, where in definitions.items() if name not in used)
    assert not dead, dead


# The package definitions that only callers outside src/finecover use
# (the tests, the benchmark and library users), qualified by class for a
# method or property. A name leaves the list when it gains a caller in the
# package or goes, so the list only shrinks.
_OUTSIDE_ONLY = {
    "verify_cover", "partition_to_cover", "minimize_cover", "transfer_cover_phi", "transfer_cover_psi",
    "Interval.contains", "check_star", "gap_limit_point", "ContinuousCode.region_eval", "pullback_gauge_phi",
    "transfer_gauge_psi", "cylinder_for_ball", "UnitPoint.exact_value", "psi", "Integrand.at",
}


def _uncalled(trees) -> set[str]:
    """The definitions of the parsed modules `trees`, dunders aside, that no
    other code in them uses, a method or property qualified by its class.
    A module-level name is used where it is read, imported or reached as
    an attribute; a method or property only where it is reached as an
    attribute, so a bare local of the same spelling does not keep it."""
    definitions, used, reached = set(), set(), set()
    for tree in trees:
        for stmt in tree.body:
            for node, own, skip in _units(stmt):
                method = node is not stmt and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                definitions |= {(name, f"{stmt.name}.{name}" if method else name, method) for name in own}
                used |= _referenced(node) - skip
                reached |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)} - skip
    return {qualified for name, qualified, method in definitions if name not in (reached if method else used)}


def test_every_definition_has_a_caller_in_the_package():
    """When nothing in src/ calls a helper, the helper goes: every
    module-level definition of the package, and every method and property
    of its classes, dunders and `__init__.py` aside, is used by some other
    code in the package, except the outside-only names listed above. The
    re-exports of `__init__.py` call nothing, so they do not count."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    uncalled = _uncalled(trees)
    assert sorted(uncalled - _OUTSIDE_ONLY) == [], "no caller in src/finecover"
    assert sorted(_OUTSIDE_ONLY - uncalled) == [], "gone, or called in src/finecover: drop from _OUTSIDE_ONLY"
    probe = ast.parse(
        "class C:\n    def at(self, x):\n        return x\n    def used(self):\n        return 1\n"
        "def f(c):\n    at = 1\n    return at, c.used()\n"
        "f(C())\n"
    )
    assert _uncalled([probe]) == {"C.at"}


_INTEGER_MATH = {"floor", "gcd", "isqrt", "lcm"}


def _float_uses(tree: ast.Module) -> list[str]:
    """Float literals, the name `float`, and `math` names outside the
    integer-only functions, each with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: float")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import math" for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: math.{a.name}" for a in node.names if a.name not in _INTEGER_MATH]
    return found


def test_no_floats_on_the_verified_path():
    """Everything in the package is exact: no float literal, no `float`,
    and from `math` only the integer functions floor, gcd, isqrt and lcm
    (imported by name, so no other can be reached)."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        uses = _float_uses(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            found[path.name] = uses
    assert not found, found


_SOURCE_RUNNERS = {"exec", "eval", "compile"}


def _source_runners(tree: ast.Module) -> list[str]:
    """Each use of the builtins that run or compile Python source, by bare
    name or through the `builtins` module, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _SOURCE_RUNNERS:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in _SOURCE_RUNNERS:
            if isinstance(node.value, ast.Name) and node.value.id in ("builtins", "__builtins__"):
                found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_no_python_source_is_run():
    """Gauge text comes from files and argv, so nothing in the package
    may turn text into Python: no exec, eval or compile."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        uses = _source_runners(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            found[path.name] = uses
    assert not found, found


_EXACT_PAIR = {"exact.numerator", "exact.denominator", "exact.a", "exact.b", "exact.enclosure"}


def _exact_pair_reads(tree: ast.Module) -> list[str]:
    """Each read of `.exact.numerator`, `.exact.denominator`, `.exact.a`,
    `.exact.b` or `.exact.enclosure`, as an attribute or through
    attrgetter, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute):
            if f"{node.value.attr}.{node.attr}" in _EXACT_PAIR:
                found.append(f"line {node.lineno}: .{node.value.attr}.{node.attr}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "attrgetter":
            found += [f"line {node.lineno}: attrgetter({a.value!r})" for a in node.args
                      if isinstance(a, ast.Constant) and a.value in _EXACT_PAIR]
    return found


def test_points_are_read_through_their_pair():
    """An exact unit point holds its value as num/den, a quadratic one as a
    QuadVal on two ints over an int; reading the numerator or denominator
    of its `exact`, or a quadratic value's parts or enclosure through it,
    would build Fractions per point, so nothing in the package does."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        reads = _exact_pair_reads(ast.parse(path.read_text(), filename=str(path)))
        if reads:
            found[path.name] = reads
    assert not found, found
    probe = ast.parse(
        "p.exact.numerator\nsorted(ps, key=attrgetter('exact.denominator'))\n"
        "p.exact.a\np.exact.b\nattrgetter('exact.b')\np.exact.enclosure(8)\n"
    )
    assert sorted(_exact_pair_reads(probe)) == [  # in line order; the walk goes by depth
        "line 1: .exact.numerator", "line 2: attrgetter('exact.denominator')", "line 3: .exact.a",
        "line 4: .exact.b", "line 5: attrgetter('exact.b')", "line 6: .exact.enclosure",
    ]


def _raisers(tree: ast.AST, text: str) -> list[str]:
    """The innermost function around each raise whose message holds `text`
    as a string or a literal part of an f-string, with the raise's line;
    `<module>` outside any function."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and any(
                isinstance(c, ast.Constant) and isinstance(c.value, str) and text in c.value for c in ast.walk(child)
            ):
                found.append(f"line {child.lineno}: {where}")
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where)

    visit(tree, "<module>")
    return found


def test_the_space_rule_is_raised_in_one_place():
    """A code answers only at points of its own space, and one guard says
    so for every code kind as each query enters (`gauges._check_query`):
    no other function raises "code evaluated at", so the check cannot
    scatter into partial copies again."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        raisers = _raisers(ast.parse(path.read_text(), filename=str(path)), "code evaluated at")
        if raisers:
            found[path.name] = [r.split(": ")[1] for r in raisers]
    assert found == {"gauges.py": ["_check_query"]}, found
    probe = ast.parse(
        "raise E('unit code evaluated at x')\n"
        "def f(x):\n    def g():\n        raise E(f'{x} code evaluated at {x}')\n    raise E('other')\n"
    )
    assert _raisers(probe, "code evaluated at") == ["line 1: <module>", "line 4: g"]


def test_each_code_class_defines_eval_of_x_and_stage():
    """The benchmark's tracer wraps each code class's own `_eval` as
    wrapper(code, x, stage), so every class keeps one of exactly that
    shape."""
    for cls in (ContinuousCode, DirectCode, Baire1Code, Baire2Code):
        assert "_eval" in cls.__dict__, cls.__name__
        assert list(inspect.signature(cls.__dict__["_eval"]).parameters) == ["self", "x", "stage"], cls.__name__


def test_the_benchmark_tracer_installs_on_the_package():
    """The traced pass rebinds the SPANS functions, each code class's own
    `_eval` and `Integrand.at`, and the counting pass reads
    `Interval.__post_init__`, `CantorPoint.bit` and `UnitPoint.approx`: a
    rename of any of them fails here, not only in the benchmark's own test.
    perfbench/ is only read: its module is imported without a bytecode file."""
    import finecover.cli  # noqa: F401  every module the tracer patches

    codes = (ContinuousCode, DirectCode, Baire1Code, Baire2Code)
    evals = [cls.__dict__["_eval"] for cls in codes]
    sys.path.insert(0, str(PERFBENCH))
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert [cls.__dict__["_eval"] for cls in codes] == evals
    counted = tracing.counted_functions()
    assert all(counted.values()), counted


def test_the_benchmark_checks_import_from_the_package():
    """perfbench/checks.py imports what the benchmark's checks call from the
    package (`verify_cover`, `parse_gauge`, `CantorPoint` and the rest) and
    jobs.py what they read: a rename of any of them fails here, not later
    as a failed benchmark run. perfbench/ is only read: its modules are
    imported without a bytecode file."""
    sys.path.insert(0, str(PERFBENCH))
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        jobs = importlib.import_module("jobs")
        checks = importlib.import_module("checks")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = write
    assert checks.pin_bits is jobs.pin_bits and checks.INTEGRALS is jobs.INTEGRALS
