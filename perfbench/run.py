"""Benchmark of the hiergraph CLI: train, then predict, then eval.

    python3 perfbench/run.py --workload short-reports --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

Run it from the root of a checkout; it imports and runs the package from
``src``.  Each run writes seeded synthetic inputs, then drives the CLI as
a user does, one child process per step, from one client in a closed
loop: rounds of ``hiergraph --version``, train, predict and eval in
order, each step between two runs of ``reference.py``, until
``--seconds`` have passed.  Each time metric is the median over the
step's timed runs of its wall time relative to the reference runs
around it, in reference seconds (see ``step_seconds``).  ``--trace 1``
instead runs one untraced round and one traced pass under ``tracer.py``
and reports per-layer figures.
``--smoke`` runs every workload at toy size, once untraced and once
traced.  Every output check counts as one attempted operation.  The last
line of standard output is the result as one JSON object; a copy with
its context lands in ``perfbench/_work/results``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# What the installed ``hiergraph`` console script runs.
LAUNCH = "import sys; from hiergraph.cli import main; sys.exit(main())"
# A run stops starting children, and kills a running one, past this many
# seconds, so that it ends within the three minutes a run may take.
TIME_LIMIT_S = 160
STEPS = ("train", "predict", "eval")
# One round of timed children: a bare start-up, then the pipeline.
ROUND = ("setup",) + STEPS
# The reference each step is timed against: the start-up of ``reference.py``
# for the bare start-up, all of it for the pipeline steps.
REFERENCE_KIND = {"setup": "start", "train": "work", "predict": "work", "eval": "work"}
# Wall time of each kind of reference in a fast spell of a shared 2-CPU
# Xeon at 2.1 GHz (Python 3.11.7, numpy 2.4.6); step times are scaled to
# that speed.
REFERENCE_S = {"start": 0.18, "work": 0.4}
# Files each step writes; their bytes must not change from run to run.
OUTPUTS = {
    "train": ("model.json", "model.json.metrics.jsonl"),
    "predict": ("pred.json",),
    "eval": ("eval.json",),
}
BLAS_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class Checks:
    """Output checks, each one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


def run_child(argv: list, log: Path, deadline: float) -> Child:
    """Run one child to completion; wall time, exit code and its own peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], stdout=out, stderr=subprocess.STDOUT, env=env
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- inputs -----------------------------------------------------------------


def write_inputs(workload, seed: int, smoke: bool, inputs: Path) -> tuple[dict, list[str]]:
    """Generate and save the workload's files; their sizes and hashes, and
    the test-split doc ids of ``data.json``."""
    from hiergraph.corpus import save_dataset
    from workloads import build

    start = time.perf_counter()
    files = {}
    datasets = build(workload, seed, smoke)
    for name, ds in datasets.items():
        path = inputs / name
        save_dataset(ds, str(path))
        splits = {}
        for split in sorted({r.split for r in ds.reports}):
            reports = [r for r in ds.reports if r.split == split]
            splits[split] = {
                "reports": len(reports),
                "tokens": sum(len(r.tokens) for r in reports),
                "entities": sum(len(r.entities) for r in reports),
                "relations": sum(len(r.relations) for r in reports),
                "token_types": len({t for r in reports for t in r.tokens}),
            }
        files[name] = {"bytes": path.stat().st_size, "sha256": sha256(path), "splits": splits}
    test_ids = sorted(r.doc_id for r in datasets["data.json"].reports if r.split == "test")
    return {"generate_s": time.perf_counter() - start, "files": files}, test_ids


# --- steps ------------------------------------------------------------------


class Steps:
    """Runs one workload's CLI steps and checks what they write."""

    def __init__(self, workload, inputs: Path, test_ids, checks: Checks, deadline: float):
        self.workload = workload
        self.inputs = inputs
        self.test_ids = test_ids
        self.checks = checks
        self.deadline = deadline
        # Output file name -> sha256 of its first version.
        self.reference: dict[str, str] = {}

    def argv(self, step: str, out: Path) -> list:
        data = self.inputs / "data.json"
        if step == "setup":
            return ["--version"]
        if step == "train":
            return ["train", data, "--splits", "train", *self.workload.train_flags, "-o", out / "model.json"]
        if step == "predict":
            return [
                "predict", out / "model.json", data, "--splits", "test", "--single-token",
                "-o", out / "pred.json",
            ]
        if (self.inputs / "noisy.json").exists():
            gold, pred = self.inputs / "gold.json", self.inputs / "noisy.json"
        else:
            gold, pred = data, out / "pred.json"
        return ["eval", gold, pred, "--splits", "test", "--json", "-o", out / "eval.json"]

    def run(self, step: str, out: Path, traced: bool = False) -> Child | None:
        """Run one step in ``out`` and check its outputs; None if it failed."""
        if traced:
            prefix = [sys.executable, HERE / "tracer.py", out / f"{step}.spans.json", "--"]
        else:
            prefix = [sys.executable, "-c", LAUNCH]
        child = run_child(prefix + self.argv(step, out), out / "log.txt", self.deadline)
        if not self.checks.check(child.code == 0, f"{step} exited with code {child.code}"):
            sys.stderr.write((out / "log.txt").read_text()[-2000:])
            return None
        for name in OUTPUTS.get(step, ()):
            digest = sha256(out / name)
            if name in self.reference:
                self.checks.check(digest == self.reference[name], f"{name} differs between runs")
            else:
                self.reference[name] = digest
                self.check_first(name, out)
        return child

    def run_reference(self, kind: str, out: Path) -> Child | None:
        """Run ``reference.py`` once, the whole of it or with ``--start``
        its start-up only; None if it failed."""
        argv = [sys.executable, HERE / "reference.py"] + (["--start"] if kind == "start" else [])
        child = run_child(argv, out / "log.txt", self.deadline)
        if not self.checks.check(child.code == 0, f"reference exited with code {child.code}"):
            return None
        return child

    def check_first(self, name: str, out: Path) -> None:
        """Checks on the first version of an output; every later version
        must be byte-identical to it."""
        from hiergraph.corpus import load_dataset

        if name == "pred.json":
            predicted = sorted(r.doc_id for r in load_dataset(str(out / name)).reports)
            self.checks.check(
                predicted == self.test_ids, "predictions do not cover exactly the test doc ids"
            )
        if name == "eval.json" and self.workload.name == "short-reports":
            scores = json.loads((out / name).read_text())
            self.checks.check(
                scores["entity_f1_micro"] == 1.0 and scores["relation_f1_micro"] == 1.0,
                "short-reports entity/relation F1 is "
                f"{scores['entity_f1_micro']}/{scores['relation_f1_micro']}, not 1.0/1.0",
            )


def measure(steps: Steps, out: Path, seconds: float, once: bool) -> tuple[dict, dict]:
    """Timed children per step, and the reference time of each: the mean
    wall time of the reference runs of its kind (``REFERENCE_KIND``) just
    before and just after it.  Rounds of ``ROUND`` run in order.  A first
    round warms caches and is checked but not timed; then timed rounds
    run, at least two, while the next one is expected to end within
    ``seconds``.  With ``once``, one timed round only."""
    out.mkdir()
    # Timed children in the order they ran, the reference runs included
    # under their kind; a step between two references of its kind.
    timeline: list[tuple[str, Child]] = []

    def reference(kind: str) -> bool:
        """End the timeline with a reference run of ``kind``, reusing the
        last run when it is one; False if the run failed."""
        if timeline and timeline[-1][0] == kind:
            return True
        ref = steps.run_reference(kind, out)
        if ref is not None:
            timeline.append((kind, ref))
        return ref is not None

    start = time.perf_counter()
    rounds = []
    warming = not once
    failed = None
    while failed is None:
        begun = time.perf_counter()
        for step in ROUND:
            kind = REFERENCE_KIND[step]
            child = steps.run(step, out) if warming or reference(kind) else None
            if child is not None and not warming:
                timeline.append((step, child))
                if not reference(kind):
                    child = None
            if child is None:
                failed = step
                break
        else:
            rounds.append(time.perf_counter() - begun)
            warming = False
            if (
                once
                or time.monotonic() + 2 * max(rounds) > steps.deadline
                or len(rounds) >= 3 and time.perf_counter() - start + statistics.median(rounds) > seconds
            ):
                break

    samples: dict[str, list[Child]] = {step: [] for step in ROUND}
    refs: dict[str, list[float]] = {step: [] for step in ROUND}
    for (_, before), (step, child), (kind, after) in zip(timeline, timeline[1:], timeline[2:]):
        if step in ROUND and kind == REFERENCE_KIND[step]:
            samples[step].append(child)
            refs[step].append((before.wall_s + after.wall_s) / 2)
    if not all(samples.values()):
        raise RuntimeError(f"{steps.workload.name}: {failed} failed before it was timed")
    return samples, refs


# --- metrics ----------------------------------------------------------------


def end_to_end(inputs_info: dict, samples: dict, refs: dict, out: Path) -> dict:
    files = inputs_info["files"]
    test = files["data.json"]["splits"]["test"]
    train_tokens = files["data.json"]["splits"]["train"]["tokens"]
    scored = files["gold.json" if "gold.json" in files else "data.json"]["splits"]["test"]["reports"]
    config = json.loads((out / "model.json").read_text())["train_config"]
    epochs = config["phase1_epochs"] + config["phase2_epochs"]
    scores = json.loads((out / "eval.json").read_text())
    t = {step: step_seconds(step, samples[step], refs[step]) for step in ROUND}

    return {
        "setup_s": (t["setup"], "s"),
        "train_s": (t["train"], "s"),
        "train_token_updates_per_s": (train_tokens * epochs / t["train"], "1/s"),
        "predict_s": (t["predict"], "s"),
        "predict_reports_per_s": (test["reports"] / t["predict"], "1/s"),
        "predict_tokens_per_s": (test["tokens"] / t["predict"], "1/s"),
        "eval_s": (t["eval"], "s"),
        "eval_reports_per_s": (scored / t["eval"], "1/s"),
        "peak_rss_mb": (max(c.rss_mb for cs in samples.values() for c in cs), "MB"),
        "entity_f1_micro": (scores["entity_f1_micro"], "f1"),
        "relation_f1_micro": (scores["relation_f1_micro"], "f1"),
    }


def step_seconds(step: str, children: list[Child], refs: list[float]) -> float:
    """A step's time in reference seconds: the median over its runs of
    its wall time over its reference time, times the ``REFERENCE_S`` of
    its kind of reference.  The shared machine runs everything up to 1.7
    times slower in spells of seconds to minutes; a step and the
    reference runs around it slow down alike, so the ratio cancels the
    spells (see README.md)."""
    ratio = statistics.median(c.wall_s / r for c, r in zip(children, refs))
    return REFERENCE_S[REFERENCE_KIND[step]] * ratio


def per_layer(checks: Checks, traced: dict, untraced: dict, out: Path) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass; per-step function table."""
    summaries = {step: json.loads((out / f"{step}.spans.json").read_text()) for step in STEPS}
    names = summaries["train"]["names"]
    calls = {n: sum(s["calls"][n] for s in summaries.values()) for n in names}
    self_s = {n: sum(s["self_s"][n] for s in summaries.values()) for n in names}
    counts = {}
    for s in summaries.values():
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    for n in names:
        checks.check(calls[n] > 0, f"traced function {n} was never called")

    metrics = {}
    for n in names:
        metrics[f"{n}.calls"] = (calls[n], "count")
        metrics[f"{n}.self_s"] = (self_s[n], "s")
    loss_calls = calls["losses.conditional_hier_loss"] + calls["losses.unconditional_loss"]
    scored = counts.get("relations.predict_relations.scored", 0)
    metrics.update(
        {
            "losses.clamped_share": (counts.get("losses.clamped", 0) / max(loss_calls, 1), "share"),
            "relations.candidate_pairs.pairs": (counts.get("relations.candidate_pairs.pairs", 0), "count"),
            "relations.predict_relations.kept_share": (
                counts.get("relations.predict_relations.kept", 0) / max(scored, 1), "share",
            ),
            "tagger.predict_tags.tokens": (counts.get("tagger.predict_tags.tokens", 0), "count"),
            "corpus.load_dataset.bytes": (counts.get("corpus.load_dataset.bytes", 0), "B"),
            "corpus.save_dataset.bytes": (counts.get("corpus.save_dataset.bytes", 0), "B"),
            "model_io.save_model.bytes": (counts.get("model_io.save_model.bytes", 0), "B"),
            "trace.overhead_s": (
                sum(c.wall_s for c in traced.values()) - sum(c.wall_s for c in untraced.values()),
                "s",
            ),
        }
    )
    table = {}
    for step, s in summaries.items():
        root = next(span for span in s["spans"] if span[3] == -1)
        total = (root[2] - root[1]) / 1e9
        table[step] = {
            "main_s": total,
            "functions": {
                n: {"calls": s["calls"][n], "self_s": s["self_s"][n]}
                for n in names
                if s["calls"][n]
            },
        }
    return metrics, table


# --- one run ----------------------------------------------------------------


def context(workload, seed: int, args, inputs_info: dict) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": commit,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "inputs": inputs_info,
    }


def run_workload(workload, seed: int, args, deadline: float) -> dict:
    tag = f"{'smoke-' if args.smoke else ''}{workload.name}-seed{seed}-trace{args.trace}"
    work = WORK / tag
    results = WORK / "results"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    traced_run = bool(args.trace or args.smoke)
    try:
        inputs_info, test_ids = write_inputs(workload, seed, args.smoke, work / "inputs")
        steps = Steps(workload, work / "inputs", test_ids, checks, deadline)
        samples, refs = measure(steps, work / "untraced", args.seconds, once=traced_run)
        metrics, table = {}, {}
        if not args.trace:
            metrics.update(end_to_end(inputs_info, samples, refs, work / "untraced"))
        if traced_run:
            out = work / "traced"
            out.mkdir()
            traced = {}
            for step in STEPS:
                traced[step] = steps.run(step, out, traced=True)
                if traced[step] is None:
                    raise RuntimeError(f"{workload.name}: the traced {step} failed")
            untraced = {step: samples[step][0] for step in STEPS}
            layer, table = per_layer(checks, traced, untraced, out)
            metrics.update(layer)
            for step in STEPS:
                shutil.copyfile(out / f"{step}.spans.json", results / f"{tag}.{step}.spans.json")
        result = {
            "correct": not checks.failures,
            "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record = {
            "context": context(workload, seed, args, inputs_info),
            "samples": {f"{s}_s": [c.wall_s for c in cs] for s, cs in samples.items()},
            "reference_s": {f"{s}_s": r for s, r in refs.items()},
            "check_failures": checks.failures,
            "trace_steps": table,
            "result": result,
        }
        (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        report(workload, record)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload, record: dict) -> None:
    """Human-readable summary on standard output."""
    ctx = record["context"]
    print(f"== {workload.name} seed {ctx['seed']}: {workload.why}")
    for name, f in ctx["inputs"]["files"].items():
        for split, s in f["splits"].items():
            print(
                f"   input {name}/{split}: {s['reports']} reports, {s['tokens']} tokens, "
                f"{s['entities']} entities, {s['relations']} relations, {s['token_types']} token types"
            )
    runs = ", ".join(f"{len(v)} {k[:-2]}" for k, v in record["samples"].items())
    print(f"   generated in {ctx['inputs']['generate_s']:.2f} s (not scored); untraced runs: {runs}")
    for step, walls in record["samples"].items():
        refs = record["reference_s"][step]
        print(
            f"   {step[:-2]:8s} wall s min/median/max {min(walls):.3f} {statistics.median(walls):.3f} "
            f"{max(walls):.3f}; reference runs around it, median {statistics.median(refs):.3f} s"
        )
    for step, row in record["trace_steps"].items():
        print(f"   traced {step}: {row['main_s']:.3f} s in cli.main")
        modules: dict[str, float] = {}
        for n, f in row["functions"].items():
            modules[n.split(".")[0]] = modules.get(n.split(".")[0], 0.0) + f["self_s"]
        shares = sorted(modules.items(), key=lambda kv: -kv[1])
        print("      self time by module: " + ", ".join(
            f"{m} {100 * v / row['main_s']:.1f}%" for m, v in shares
        ))
        for n, f in sorted(row["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(
                f"      {n:36s} {f['calls']:8d} calls {f['self_s']:9.4f} s self "
                f"{100 * f['self_s'] / row['main_s']:5.1f}%"
            )
    for name, m in record["result"]["metrics"].items():
        print(f"   {name:40s} {m['value']:14.6g} {m['unit']}")
    r = record["result"]
    print(f"   checks: {r['attempted']} attempted, {r['failed']} failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at toy size, once")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "hiergraph" / "cli.py").is_file():
        print(f"error: no hiergraph package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload is None and not args.smoke:
        parser.error("--workload is required without --smoke")
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [run_workload(WORKLOADS[n], args.seed, args, deadline) for n in names]
    for result in results:
        print(json.dumps(result))
    return 0 if not args.smoke or all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
