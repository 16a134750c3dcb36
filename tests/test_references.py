"""Every cross-reference in the package's docstrings (``:func:``,
``:meth:``, ``:class:``, ...) and every module-qualified name in
README.md resolves to a live attribute, so a renamed or deleted name
leaves no stale mention behind; and the sweep file keys they list are
the keys the sweep parser accepts."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import cpso
from cpso import cli

PACKAGE = pathlib.Path(cpso.__file__).parent
README = PACKAGE.parents[1] / "README.md"
MODULES = [m.name for m in pkgutil.iter_modules([str(PACKAGE)])]
ROLE = re.compile(r":(?:func|meth|class|mod|attr|data|exc|obj):`~?([\w.]+)`")
# `problem._raw_terms`, `cpso.handlers.sort_keys(...)`: a package module,
# optionally under cpso, then a dotted name.
README_NAME = re.compile(rf"`(?:cpso\.)?((?:{'|'.join(MODULES)})\.[\w.]*\w)")


def _lookup(obj, name):
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def _resolves(name, scopes):
    """Whether ``name`` is a path from ``cpso``, or from the innermost of
    ``scopes`` (the enclosing classes, then the module) holding its
    first part, to a live attribute."""
    if name.startswith("cpso."):
        scopes, name = [cpso], name[len("cpso."):]
    first = name.split(".")[0]
    scope = next((s for s in scopes if hasattr(s, first)), None)
    try:
        _lookup(scope, name)  # no scope holds it: None has no such attribute
    except AttributeError:
        return False
    return True


def _docstring_refs(node, scopes):
    """``(name, scopes)`` for each role in the docstrings under ``node``."""
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
        for name in ROLE.findall(ast.get_docstring(node, clean=False) or ""):
            yield name, scopes
    for child in ast.iter_child_nodes(node):
        inner = scopes
        if isinstance(child, ast.ClassDef):
            inner = [getattr(scopes[0], child.name), *scopes]
        yield from _docstring_refs(child, inner)


def test_docstring_cross_references_resolve():
    refs = []
    for name in MODULES:
        module = importlib.import_module(f"cpso.{name}")
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        refs.extend((name, *ref) for ref in _docstring_refs(tree, [module]))
    assert len(refs) > 50
    stale = [(module, name) for module, name, scopes in refs if not _resolves(name, scopes)]
    assert stale == []


def test_readme_module_names_resolve():
    names = README_NAME.findall(README.read_text())
    assert len(names) > 10
    stale = [name for name in names if not _resolves(name, [cpso])]
    assert stale == []


def test_documented_sweep_keys_are_the_accepted_keys():
    # The parser names the keys it accepts when it meets another one.
    with pytest.raises(cli.UsageError) as unknown:
        cli.parse_sweep_file("[run]\nnosuch = 1\n")
    accepted = unknown.value.args[0].split("valid keys: ")[1].split(", ")
    readme = re.search(r"Valid keys: (.*?)\.\s", README.read_text(), re.S)[1]
    doc = re.search(r"Keys: (.*?)\.\s", cli.parse_sweep_file.__doc__, re.S)[1]
    assert len(accepted) > 10
    assert sorted(re.findall(r"`([\w-]+)`", readme)) == accepted
    assert sorted(re.findall(r"[\w-]+", doc)) == accepted


# ``tol``, ``tol.ineq``, ``tolerances.eq``, ``self.tolerances.ineq``, ...
TOLERANCE = re.compile(r"\b(?:tol|tolerances)\b")
ORDERINGS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
COMPARISONS = {"less", "less_equal", "greater", "greater_equal"}


def _tolerance_tests(tree):
    """Line numbers of the comparisons with a tolerance under ``tree``:
    ordering operators and NumPy's ordering functions with an operand
    that names one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and isinstance(node.ops[0], ORDERINGS):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in COMPARISONS:
            operands = node.args
        else:
            continue
        if any(TOLERANCE.search(ast.unparse(op)) for op in operands):
            yield node.lineno


def _sites_outside(find, module, function):
    """``(module, line)`` of each site that ``find`` yields in a package
    module's tree, but for those in ``function`` of ``module``, which
    must hold one."""
    sites = []
    for name in MODULES:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        sites.extend((name, line) for line in find(tree))
    home = next(
        node
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    inside = [s for s in sites if s[0] == module and home.lineno <= s[1] <= home.end_lineno]
    assert inside
    return sorted(set(sites) - set(inside))


def test_the_tolerance_rule_is_written_once():
    # Every feasibility mask and nac runs through problem._within: no
    # other code of the package compares a term with a tolerance.
    assert _sites_outside(_tolerance_tests, "problem", "_within") == []


def _generator_rewinds(tree):
    """Line numbers of the assignments to a ``bit_generator.state`` under
    ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            re.search(r"\bbit_generator\.state\b", ast.unparse(t)) for t in node.targets
        ):
            yield node.lineno


def test_a_generator_is_rewound_in_one_place():
    # Only the feasible start sets a generator's state, to leave it
    # where drawing chunk by chunk leaves it: the draw order of every
    # run rests on that one function.
    assert _sites_outside(_generator_rewinds, "swarm", "_feasible_positions") == []
