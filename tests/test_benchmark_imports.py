"""Every gpsauth name the benchmark harness imports still resolves.

The harness under ``benchmarks/`` is not changed by library refactors and
its own tests are not part of the default suite, so this test reads its
sources with ``ast`` (without importing or running them) and checks each
``from gpsauth... import name`` against the library.
"""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def gpsauth_imports():
    for path in sorted(BENCHMARKS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                    node.module == "gpsauth" or node.module.startswith("gpsauth.")):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_benchmark_imports_resolve():
    imports = list(gpsauth_imports())
    assert {module for _, module, _ in imports} >= {"gpsauth.datapath", "gpsauth.protocol"}
    missing = [f"{file}: from {module} import {name}" for file, module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
