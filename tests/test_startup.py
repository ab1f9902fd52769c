"""Start-up cost: numpy loads only for the commands that do array maths.

Each check runs in a fresh interpreter, since the test process itself
has numpy loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hiergraph.cli import main

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hiergraph"
SMALL = str(ROOT / "tests" / "fixtures" / "synthetic_small.json")

# Runs the CLI on argv and prints its exit code and the numpy submodules
# then in sys.modules, as JSON.
RUN_CLI = """
import json, sys
from hiergraph.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
print(json.dumps({"code": code, "numpy": loaded}), file=sys.stderr)
"""


def child(code: str, *argv) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src`` on the path; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done


def run_cli(*argv) -> dict:
    return json.loads(child(RUN_CLI, *argv).stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "model.json"
    argv = ["train", SMALL, "--phase1-epochs", "1", "--phase2-epochs", "1", "-o", str(path)]
    assert main(argv) == 0
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["validate", SMALL],
        ["validate", "--strict", SMALL],
        ["stats", SMALL],
        ["eval", SMALL, SMALL],
        ["tokenize", "{text}"],
        ["prune", SMALL, "-o", "{out}"],
        ["export-dot", SMALL, "--doc", "mimic-1"],
        ["kappa", SMALL, SMALL],
    ],
    ids=lambda argv: " ".join(a for a in argv if a != SMALL),
)
def test_annotation_commands_leave_numpy_unloaded(argv, tmp_path):
    text = tmp_path / "report.txt"
    text.write_text("No acute cardiopulmonary process.\n")
    argv = [a.format(text=text, out=tmp_path / "out.json") for a in argv]
    result = run_cli(*argv)
    assert result == {"code": 0, "numpy": []}


@pytest.mark.parametrize("command", ["train", "predict", "loss-check"])
def test_array_commands_load_numpy(command, model, tmp_path):
    argv = {
        "train": ["train", SMALL, "--phase1-epochs", "1", "--phase2-epochs", "1",
                  "-o", tmp_path / "model.json"],
        "predict": ["predict", model, SMALL, "-o", tmp_path / "pred.json"],
        "loss-check": ["loss-check", "--trials", "2"],
    }[command]
    result = run_cli(*argv)
    assert result["code"] == 0
    assert "numpy.linalg" in result["numpy"]


def test_only_the_handle_module_imports_numpy():
    """A plain ``import numpy`` anywhere in the package loads it at import."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_lazy.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == [], "import numpy through hiergraph._lazy: " + ", ".join(offenders)


@pytest.mark.parametrize(
    "block",
    [
        'sys.modules["numpy"] = None',
        # Without site-packages the finder has no numpy to offer.
        'sys.path[:] = [p for p in sys.path if "-packages" not in p]',
    ],
    ids=["blocked", "not-installed"],
)
def test_missing_numpy_fails_at_import(block):
    code = f"""
import importlib.util, sys
{block}
assert importlib.util.find_spec("numpy") is None
try:
    import hiergraph
except ModuleNotFoundError as exc:
    assert exc.name == "numpy", exc
else:
    raise SystemExit("import hiergraph succeeded without numpy")
"""
    child(code)


def test_imported_numpy_is_reused():
    child("""
import sys
import numpy
from hiergraph import _lazy, relations
assert _lazy.numpy is numpy is relations.np is sys.modules["numpy"]
""")
