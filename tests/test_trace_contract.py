"""The benchmark tracer's contract: every layer it wraps is called on the
CLI path.

``perfbench/tracer.py`` wraps the public functions named in its
``TARGETS`` and reports calls and self time per name.  A change that
takes one of them off the path of ``train``, ``predict`` or ``eval``
leaves that layer's figures at zero; this test notices it in about a
second, where the benchmark's smoke run takes several.
"""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hiergraph.corpus import Dataset, save_dataset
from hiergraph.synth import make_separable_corpus

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="perfbench/tracer.py is absent")
def test_every_target_is_called(tmp_path):
    reports = make_separable_corpus(n_reports=24).reports
    reports[16:] = [dataclasses.replace(r, split="test") for r in reports[16:]]
    data, model, pred = (str(tmp_path / name) for name in ("data.json", "model.json", "pred.json"))
    save_dataset(Dataset(reports), data)
    steps = {
        "train": ["train", data, "--splits", "train", "--phase1-epochs", "1",
                  "--phase2-epochs", "1", "-o", model],
        "predict": ["predict", model, data, "--splits", "test", "-o", pred],
        "eval": ["eval", data, pred, "--splits", "test", "--json",
                 "-o", str(tmp_path / "eval.json")],
    }
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    names: set[str] = set()
    calls: Counter = Counter()
    for step, argv in steps.items():
        spans = tmp_path / f"{step}.spans.json"
        child = subprocess.run(
            [sys.executable, str(TRACER), str(spans), "--", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, (step, child.stderr)
        summary = json.loads(spans.read_text())
        names.update(summary["names"])
        calls.update(summary["calls"])
    assert "taxonomy.TaxonomyTree.from_edges" in names
    assert sorted(n for n in names if not calls[n]) == []
