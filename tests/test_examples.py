"""Smoke checks on the bundled examples.

Running each example end-to-end takes minutes (they use realistic
horizons), so here we check structure: every example imports (so a name
the library no longer has fails here), exposes a ``main()`` and guards
it behind ``__main__`` — plus we execute the fastest ones for real.
"""

import ast
import importlib.util
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 10


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[path.stem for path in EXAMPLES]
)
def test_example_structure(path):
    tree = ast.parse(path.read_text())
    # A module docstring explaining the scenario.
    assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
    functions = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "main" in functions, f"{path.name} lacks a main()"
    # Guarded entry point.
    assert any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and getattr(node.test.left, "id", "") == "__name__"
        for node in tree.body
    ), f"{path.name} lacks an if __name__ guard"
    # Importing runs everything but main(): every import must resolve.
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("name", ["estimator_inspection.py",
                                  "signaling_latency.py",
                                  "weekend_patterns.py"])
def test_fast_examples_run(name):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
