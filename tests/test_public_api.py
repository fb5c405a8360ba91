"""Every public name reaches a command, or the README says why it does not.

A name in a module's `__all__` counts as reached when some code in
`src/veridyn` outside its own definition refers to it: another module, or
another function of its own module (`sweep_bifurcation` calls
`find_fixed_point`). The scan is static (`ast`), so it cannot see what
runs; it catches the public name that only tests use.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "veridyn"
LIBRARY_ONLY_HEADING = "### Library-only names"
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| (.*?) \|$")


def _defines(stmt: ast.stmt, name: str) -> bool:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name == name
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _referenced(stmt: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@functools.cache
def _unreached_public_names() -> frozenset[tuple[str, str]]:
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")).body
               for path in sorted(SRC.glob("*.py"))}
    refs = [(module, stmt, _referenced(stmt))
            for module, body in modules.items() for stmt in body]
    unreached = set()
    for module, body in modules.items():
        public = [ast.literal_eval(stmt.value) for stmt in body
                  if isinstance(stmt, ast.Assign) and _defines(stmt, "__all__")]
        for name in (name for names in public for name in names):
            if not any(name in used for other, stmt, used in refs
                       if other != module or not _defines(stmt, name)):
                unreached.add((module, name))
    return frozenset(unreached)


def _library_only_table() -> dict[tuple[str, str], str]:
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(LIBRARY_ONLY_HEADING)
    rows = {}
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        match = ROW.match(line)
        if match:
            rows[match.group(1), match.group(2)] = match.group(3).strip()
    return rows


def test_every_public_name_is_reached_or_listed_with_a_reason():
    table = _library_only_table()
    unreached = _unreached_public_names()
    missing = sorted(f"{m}.{n}" for m, n in unreached - table.keys())
    assert not missing, f"public names no package code uses: {missing}"
    assert all(table[key] for key in unreached), "a library-only name without a reason"


def test_library_only_table_lists_only_unreached_public_names():
    stale = sorted(f"{m}.{n}" for m, n in _library_only_table().keys()
                   - _unreached_public_names())
    assert not stale, f"README lists names that are reached or not public: {stale}"
