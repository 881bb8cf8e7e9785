"""Layering rules, checked on the source's import statements.

``repro.static`` computes the phase-1 facts the Eraser baseline and the
portfolio build on, so it must import nothing from ``repro.baselines``
or ``repro.portfolio``.  Jobs leave the process one way only: the shard
coordinator starts every worker process, so no module outside
``repro.shard`` imports ``repro.shard.worker``, nor ``subprocess`` or
``multiprocessing``, with which it could start processes of its own.
Files under a cache root are merged one way only: the artifact cache
holds the one locked read-merge-write, so no other module imports
``fcntl``, with which it could lock and merge files of its own.
Every rule covers lazy imports inside a function too, which is how
import cycles and second transports usually get papered over.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent.parent

#: (checked package, package exempt from the rule, forbidden imports)
RULES = {
    "static-below-analyses": (
        "repro.static",
        None,
        ("repro.baselines", "repro.portfolio"),
    ),
    "one-out-of-process-transport": (
        "repro",
        "repro.shard",
        ("repro.shard.worker",),
    ),
    "processes-start-in-the-shard-layer": (
        "repro",
        "repro.shard",
        ("subprocess", "multiprocessing"),
    ),
    "one-locked-merge": (
        "repro",
        "repro.engine.cache",
        ("fcntl",),
    ),
}


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


@pytest.mark.parametrize("rule", sorted(RULES))
def test_no_forbidden_imports(rule):
    checked, exempt, forbidden = RULES[rule]
    offenders = []
    for path in sorted(SRC.joinpath(*checked.split(".")).rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        # A module's relative imports resolve in its package, which for
        # a package's ``__init__`` is the package itself.
        package = ".".join(parts[:-1])
        module = package if parts[-1] == "__init__" else ".".join(parts)
        if exempt is not None and _within(module, exempt):
            continue
        offenders.extend(
            f"{module}:{line}: {imported}"
            for line, imported in _imported_modules(path, package)
            if any(_within(imported, f) for f in forbidden)
        )
    assert not offenders, offenders
