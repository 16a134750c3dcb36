"""Every cross-reference in the package's docstrings (``:func:``,
``:meth:``, ``:class:``, ...) and every module-qualified name in
README.md resolves to a live attribute, so a renamed or deleted name
leaves no stale mention behind."""

import ast
import importlib
import pathlib
import pkgutil
import re

import cpso

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
