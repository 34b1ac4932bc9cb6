"""Import layering: the engine is the one evaluator and depends on no legacy module.

``repro.algorithms`` holds the single-relation entry points, which call
the engine; an engine module importing them back would make two
evaluators of one model again (and an import cycle).
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).resolve().parent
FORBIDDEN = "repro.algorithms"


def imported_modules(path: Path, source: Path = SOURCE) -> list[tuple[int, str]]:
    """``(line, module)`` of every import in ``path``, relative ones resolved.

    ``source`` is the ``repro`` package directory ``path`` lies in.
    Function-local imports count; ``from package import name`` yields
    ``package.name`` as well, since ``name`` may be a submodule.
    """
    package = path.relative_to(source.parent).parts[:-1]
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.append((node.lineno, module))
            found += [(node.lineno, f"{module}.{alias.name}") for alias in node.names]
    return found


def test_resolves_relative_and_absolute_imports(tmp_path):
    package = tmp_path / "repro" / "engine" / "backends"
    package.mkdir(parents=True)
    module = package / "probe.py"
    module.write_text(
        "import repro.algorithms.polynomials\n"
        "from ... import algorithms\n"
        "def f():\n"
        "    from ...algorithms.independent import rank_independent\n"
        "from ..kernels import row_sums\n"
    )
    modules = {module for _, module in imported_modules(module, tmp_path / "repro")}
    assert "repro.algorithms.polynomials" in modules
    assert "repro.algorithms" in modules
    assert "repro.algorithms.independent" in modules
    assert "repro.engine.kernels.row_sums" in modules


def test_engine_never_imports_repro_algorithms():
    offenders = [
        f"{path.relative_to(SOURCE.parent)}:{line} imports {module}"
        for path in sorted((SOURCE / "engine").rglob("*.py"))
        for line, module in imported_modules(path)
        if module == FORBIDDEN or module.startswith(FORBIDDEN + ".")
    ]
    assert offenders == []
