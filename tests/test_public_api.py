"""Every public name of ``pvarpath`` has a caller inside the package.

The package's modules, ``__init__`` aside, are parsed, and each name they
load, bare or as an attribute, counts as a use.  A public name that nothing
loads is dead API: give it a caller or delete it, or, with a reason, list it
in ``UNUSED_ALLOWED``.
"""

import ast
import inspect
from pathlib import Path

import pvarpath

UNUSED_ALLOWED = {
    "haar_eval": "pointwise oracle that the tests check the synthesis pyramid against",
    "schauder_eval": "pointwise oracle that the tests check the synthesis pyramid against",
    "qadic_path": "wraps raw samples as a path on the q-adic grid they fit",
    "holder_bound": "pending ROADMAP item 3 (the density theorem)",
    "shifted_reference": "pending ROADMAP item 2 (stability on transported subspaces)",
    "transport_multiply": "pending ROADMAP item 2 (stability on transported subspaces)",
    "transported_norm": "pending ROADMAP item 2 (stability on transported subspaces)",
}


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
