"""Every name a demo imports from fogplace exists; the quick demos also run to completion."""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
# sweep_comparison.py trains for about 30 s, so only its imports are checked
QUICK_DEMOS = ["cost_model_walkthrough.py", "train_small_agent.py"]


def fogplace_imports(path):
    """(module, name) for each ``from fogplace... import name`` and ``import fogplace...``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fogplace":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "fogplace")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    imports = list(fogplace_imports(demo))
    assert imports, f"{demo.name} imports nothing from fogplace"
    for module, name in imports:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or ImportError


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_quick_demo_runs(name):
    src = str(Path(importlib.import_module("fogplace").__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(DEMO_DIR / name)], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout
