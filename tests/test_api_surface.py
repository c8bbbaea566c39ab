"""The public surface stays narrow: every module-level name in the package has a user.

A module-level ``def``, ``class`` or assignment in ``src/radarmon`` must be
referenced somewhere in ``src/radarmon`` or ``perfbench`` besides its own
definition: as a name, an attribute or an imported name.  Tests, docstrings
and comments do not count, so a helper only tests reach fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radarmon"


def defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def test_every_module_level_name_has_a_user():
    users = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    referenced = set()
    for path in users:
        if not path.name.startswith("test_"):
            referenced.update(referenced_names(ast.parse(path.read_text())))
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in defined_names(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__")) and name not in referenced
    ]
    assert unused == []
