"""The declared runtime dependencies are exactly the packages the code imports."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "salientpref"


def imported_third_party():
    """Top-level names of every non-stdlib absolute import in the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names if n not in sys.stdlib_module_names and n != "salientpref"}


def declared_dependencies():
    """Names in ``[project].dependencies`` of pyproject.toml (no TOML library:
    ``tomllib`` is stdlib only from Python 3.11)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    specs = re.findall(r"[\"']([^\"']+)[\"']", deps)
    return {re.match(r"[A-Za-z0-9_.\-]+", s.strip()).group(0).lower() for s in specs}


def test_dependencies_match_imports():
    imported = imported_third_party()
    assert imported, "expected at least numpy"
    assert {n.lower() for n in imported} == declared_dependencies()
