"""Every public name of ``pvarpath`` has a caller inside the package.

The package's modules, ``__init__`` aside, are parsed, and each name they
load, bare or as an attribute, counts as a use.  A public name that nothing
loads is dead API: give it a caller or delete it, or, with a reason, list it
in ``UNUSED_ALLOWED``.  The same holds for the public methods and properties
of public classes, matched by attribute name, with ``UNUSED_MEMBERS_ALLOWED``
as their list.
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


def loaded_names() -> set:
    names = set()
    for source in Path(pvarpath.__file__).parent.glob("*.py"):
        if source.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


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
