"""The static pass sits below the analyses that read its facts.

``repro.static`` computes the phase-1 facts the Eraser baseline and the
portfolio build on, so it must import nothing from
``repro.baselines`` or ``repro.portfolio`` -- not even lazily inside a
function, which is how import cycles usually get papered over.
"""

import ast
from pathlib import Path

import repro.static

FORBIDDEN = ("repro.baselines", "repro.portfolio")


def _imported_modules(path: Path, package: str):
    """(line, module) for every import in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[: len(parts) - node.level + 1])
                if node.module:
                    base = f"{base}.{node.module}"
            if node.module:
                yield node.lineno, base
            else:
                # ``from .. import baselines`` imports modules by name.
                for alias in node.names:
                    yield node.lineno, f"{base}.{alias.name}"


def _within(module: str, root: str) -> bool:
    return module == root or module.startswith(root + ".")


def test_static_imports_no_baselines_or_portfolio():
    root = Path(repro.static.__file__).parent
    offenders = [
        f"{path.name}:{line}: {module}"
        for path in sorted(root.glob("*.py"))
        for line, module in _imported_modules(path, "repro.static")
        if any(_within(module, f) for f in FORBIDDEN)
    ]
    assert not offenders, offenders
