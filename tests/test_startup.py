"""Start-up cost: each command runs only the package modules it uses,
and numpy loads only for the commands that do array maths, and then on
one BLAS thread unless the user chose a count.

Each check runs in a fresh interpreter, since the test process itself
has numpy loaded.  The test builds each child's environment: none of
the BLAS thread variables is set unless the case sets it, whatever the
test process carries.
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
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# The package modules every command runs: the CLI, the settings its
# parser reads, and the lazy binder.
CLI_MODULES = ("hiergraph", "hiergraph._lazy", "hiergraph.cli", "hiergraph.errors",
               "hiergraph.settings")

# Sets ``ran`` to the sorted names of the package modules whose code has
# run.  A lazily bound module's type is ModuleType once it has run;
# reading any of its attributes would run it.
RAN = """
import types
ran = sorted(
    n for n, m in sys.modules.items()
    if n.partition(".")[0] == "hiergraph" and type(m) is types.ModuleType
)
"""

# Runs the CLI on argv and prints, as JSON: its exit code, the numpy
# submodules then in sys.modules, the environment variables it changed,
# the process's OS thread count (None without /proc) and the package
# modules that ran.
RUN_CLI = """
import json, os, sys
before = dict(os.environ)
from hiergraph.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
changed = {
    k: os.environ.get(k)
    for k in before.keys() | os.environ.keys()
    if before.get(k) != os.environ.get(k)
}
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
""" + RAN + """
print(json.dumps({"code": code, "numpy": loaded, "environ": changed, "threads": threads,
                  "ran": ran}), file=sys.stderr)
"""


def child(code: str, *argv, **environ) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with ``src`` on the path and, of
    the BLAS thread variables, only those in ``environ``; it must exit 0."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return done


def run_cli(*argv, prelude: str = "", **environ) -> dict:
    return json.loads(child(prelude + RUN_CLI, *argv, **environ).stderr.splitlines()[-1])


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
    """These commands load no numpy, and run only the CLI's modules,
    ``corpus`` and ``schema``, and ``evaluation`` for ``eval``."""
    text = tmp_path / "report.txt"
    text.write_text("No acute cardiopulmonary process.\n")
    argv = [a.format(text=text, out=tmp_path / "out.json") for a in argv]
    result = run_cli(*argv)
    assert (result["code"], result["numpy"], result["environ"]) == (0, [], {})
    uses = {"--version": (), "eval": ("corpus", "evaluation", "schema")}.get(
        argv[0], ("corpus", "schema")
    )
    assert result["ran"] == sorted(CLI_MODULES + tuple(f"hiergraph.{m}" for m in uses))


@pytest.mark.parametrize(
    "argv",
    [[], ["--help"], ["frobnicate"], ["eval", SMALL], ["train", SMALL, "--seed", "x", "-o", "m"]],
    ids=lambda argv: " ".join(a for a in argv if a != SMALL) or "none",
)
def test_usage_errors_run_only_the_cli(argv):
    result = run_cli(*argv)
    assert result["code"] == (0 if argv == ["--help"] else 1)
    assert result["ran"] == sorted(CLI_MODULES)


# Every submodule the package binds lazily.
BOUND = ("corpus", "errors", "evaluation", "losses", "model_io", "relations", "schema",
         "settings", "tagger", "taxonomy")


def test_import_runs_no_submodule():
    """``import hiergraph`` runs only the lazy binder; every submodule is
    registered in sys.modules all the same, where code that imports
    ``hiergraph.cli`` and then looks the modules up (the benchmark's
    tracer) finds them."""
    done = child(f"""
import json, sys
import hiergraph
{RAN}
print(json.dumps(ran))
import hiergraph.cli
{RAN}
print(json.dumps(ran))
print(json.dumps(sorted(n for n in sys.modules if n.startswith("hiergraph."))))
print("__version__" in vars(hiergraph))
""")
    imported, cli_imported, registered, version = done.stdout.splitlines()
    assert json.loads(imported) == ["hiergraph", "hiergraph._lazy"]
    assert json.loads(cli_imported) == sorted(CLI_MODULES)
    assert set(json.loads(registered)) >= {f"hiergraph.{m}" for m in BOUND}
    assert version == "True"


# Each public name the package offers, by the module that defines it.
PUBLIC_NAMES = {
    "corpus": "Dataset cohens_kappa dataset_kappa label_statistics load_dataset save_dataset "
              "to_token_labeling tokenize",
    "errors": "CycleDetected DepthOutOfRange DocMismatch DuplicateNode EmptyDataset "
              "FileUnreadable HierGraphError LengthMismatch MalformedRecord ModelFormatError "
              "MultipleRoots NonFiniteLogit NotALeaf OverlapConflict RootHasNoParent "
              "TaxonomyConfigError TaxonomyMismatch TrainConfigError TrainingDiverged "
              "UnknownNode UnknownParent UnknownSplit ValidationError ZeroParentMass",
    "evaluation": "EvalScores TypeCounts aggregate evaluate_intersection match_entities "
                  "match_relations",
    "losses": "LossReport check_loss_gradients check_loss_invariants conditional_hier_loss "
              "gradient_check unconditional_loss",
    "model_io": "LoadedModel load_model save_model",
    "relations": "RelationScorerParams candidate_pairs predict_relations train_relation_scorer",
    "schema": "ENTITY_LABELS NONE_LABEL RELATION_KINDS Entity Relation ReportGraph parse_report "
              "prune_to_radgraph1 relation_signature_allowed serialize_report to_dot "
              "validate_graph",
    "tagger": "TaggerParams TrainConfig build_vocab decode_entities predict_tags tag_tree_for "
              "train_two_phase",
    "taxonomy": "TaxonomyTree argmax_leaf build_tree conditional_probability leaf_distribution "
                "load_taxonomy propagate",
}


def test_public_names_resolve_to_their_owners():
    """Each public name resolves, through ``from hiergraph import`` and
    as an attribute, to its module's object and is listed by ``dir``;
    the settings the CLI reads keep their old homes too."""
    child("""
import importlib, json, sys
import hiergraph
listed = dir(hiergraph)
from hiergraph import evaluation, relations, settings, tagger
for module, names in json.loads(sys.argv[1]).items():
    owner = importlib.import_module(f"hiergraph.{module}")
    for name in names.split():
        scope = {}
        exec(f"from hiergraph import {name}", scope)
        assert scope[name] is getattr(hiergraph, name) is getattr(owner, name), name
        assert name in listed, name
assert tagger.TrainConfig is settings.TrainConfig
assert evaluation.EVAL_MODES is settings.EVAL_MODES
assert relations.DEFAULT_DISTANCE_CAP is settings.DEFAULT_DISTANCE_CAP
try:
    hiergraph.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise SystemExit("hiergraph.no_such_name resolved")
""", json.dumps(PUBLIC_NAMES))


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--lr-phase2", "0.5"], ["--distance-cap", "-1"]], ids=" ".join
)
def test_rejected_train_setting_leaves_numpy_unloaded(flags, tmp_path):
    result = run_cli("train", tmp_path / "missing.json", *flags, "-o", tmp_path / "m.json")
    assert (result["code"], result["numpy"], result["environ"]) == (2, [], {})
    assert list(tmp_path.iterdir()) == []


def test_tree_queries_leave_numpy_unloaded():
    """Loading, extending and querying a taxonomy runs no numpy code;
    only the loss tables need it."""
    done = child("""
import sys, types
from hiergraph import _lazy
from hiergraph.tagger import tag_tree_for
from hiergraph.taxonomy import load_taxonomy
tree = load_taxonomy("radgraph2_depth3")
for t in (tree, tree.with_extra_leaf("EXTRA", "CHAN"), tag_tree_for(tree)):
    for name in t.nodes:
        t.depth_of(name), t.root_path(name), t.subtree_leaf_indices(name)
        t.is_ancestor("ROOT", name)
    for leaf in t.leaves:
        t.leaf_index(leaf)
        for d in range(t.max_depth + 1):
            t.correct_node_at_depth(leaf, d)
    t.mass_nodes, t.config_hash
print(type(_lazy.numpy) is types.ModuleType, [m for m in sys.modules if m.startswith("numpy.")])
""")
    assert done.stdout.strip() == "False []"


def array_argv(command, model, out):
    return {
        "train": ["train", SMALL, "--phase1-epochs", "1", "--phase2-epochs", "1",
                  "-o", out / "model.json"],
        "predict": ["predict", model, SMALL, "-o", out / "pred.json"],
        "loss-check": ["loss-check", "--trials", "2"],
    }[command]


@pytest.mark.parametrize("command", ["train", "predict", "loss-check"])
def test_array_commands_load_numpy(command, model, tmp_path):
    result = run_cli(*array_argv(command, model, tmp_path))
    assert result["code"] == 0
    assert "numpy.linalg" in result["numpy"]
    assert result["environ"] == {"OPENBLAS_NUM_THREADS": "1"}
    if result["threads"] is not None:
        assert result["threads"] == 1


@pytest.mark.parametrize(
    "environ", [{"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "3"}],
    ids=lambda environ: ",".join(environ),
)
@pytest.mark.parametrize("command", ["train", "predict"])
def test_user_thread_count_wins(command, environ, model, tmp_path):
    result = run_cli(*array_argv(command, model, tmp_path), **environ)
    assert (result["code"], result["environ"]) == (0, {})


def test_numpy_loaded_before_main_keeps_environment(tmp_path):
    """An in-process caller that already ran numpy keeps its environment,
    which its own child processes inherit."""
    result = run_cli(*array_argv("train", None, tmp_path), prelude="import numpy\n")
    assert (result["code"], result["environ"]) == (0, {})


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
