"""Every public name of ``pvarpath`` has a caller inside the package.

The package's modules, ``__init__`` aside, are parsed, and each name they
load, bare or as an attribute, counts as a use.  A public name that nothing
loads is dead API: give it a caller or delete it, or, with a reason, list it
in ``UNUSED_ALLOWED``.  The same holds for the public methods and properties
of public classes, matched by attribute name, with ``UNUSED_MEMBERS_ALLOWED``
as their list.  Within each module, every name a module-level import binds
must be loaded too; ``__init__`` re-exports and ``from __future__`` aside.
No module imports another module's underscore name: what a module keeps
private stays behind its public functions.  So each private function, class
and assignment at module level must be loaded in its own module, or it is
dead code.
"""

import ast
import inspect
from pathlib import Path

import pvarpath

UNUSED_ALLOWED = {
    "gamma": "scalar sign-table entry that the tests check gamma_rows against",
    "haar_eval": "pointwise oracle that the tests check the synthesis pyramid against",
    "schauder_eval": "pointwise oracle that the tests check the synthesis pyramid against",
    "qadic_path": "wraps raw samples as a path on the q-adic grid they fit",
    "shifted_reference": "pending ROADMAP item 2 (stability on transported subspaces)",
    "transported_norm": "pending ROADMAP item 2 (stability on transported subspaces)",
}

UNUSED_MEMBERS_ALLOWED = {}


def package_modules() -> dict:
    """Module file name -> parsed source, ``__init__`` aside."""
    return {source.name: ast.parse(source.read_text(), filename=str(source))
            for source in sorted(Path(pvarpath.__file__).parent.glob("*.py"))
            if source.name != "__init__.py"}


def module_loads(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def loaded_names() -> set:
    return set().union(*map(module_loads, package_modules().values()))


def test_public_names_have_callers():
    public = {name for name, value in vars(pvarpath).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    unused = public - loaded_names()
    assert unused - set(UNUSED_ALLOWED) == set(), "public names without a caller"
    # an allowed name that gained a caller, or left the API, leaves the list
    assert set(UNUSED_ALLOWED) - unused == set(), "stale UNUSED_ALLOWED entries"


def public_members() -> set:
    """"Class.name" of each public method and property of a public class."""
    members = set()
    for cls_name, cls in vars(pvarpath).items():
        if cls_name.startswith("_") or not inspect.isclass(cls):
            continue
        for name, attr in vars(cls).items():
            if not name.startswith("_") and (
                    inspect.isfunction(attr)
                    or isinstance(attr, (property, classmethod, staticmethod))):
                members.add(f"{cls_name}.{name}")
    return members


def test_public_members_have_callers():
    loaded = loaded_names()
    unused = {m for m in public_members() if m.split(".")[1] not in loaded}
    assert unused - set(UNUSED_MEMBERS_ALLOWED) == set(), "public members without a caller"
    assert set(UNUSED_MEMBERS_ALLOWED) - unused == set(), "stale UNUSED_MEMBERS_ALLOWED entries"


def test_module_level_imports_are_loaded():
    unused = []
    for module, tree in package_modules().items():
        loads = module_loads(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{module}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in loads]
    assert unused == [], "imports the module never loads"


def test_no_module_imports_a_private_name():
    private = []
    for module, tree in package_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "pvarpath"):
                private += [f"{module}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert private == [], "underscore names imported from another package module"


def module_private_names(tree) -> list:
    """The underscore names, dunders aside, that a module's top-level
    function and class definitions and assignments bind."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target)
                      if isinstance(n, ast.Name)]
    return [name for name in names
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]


def test_private_names_are_read_in_their_module():
    unread = []
    for module, tree in package_modules().items():
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{module}: {name}" for name in module_private_names(tree)
                   if name not in loads]
    assert unread == [], "private names their module never reads"
