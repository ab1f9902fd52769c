"""Command-line entry point.

One executable with subcommands covering the full workflow: validate,
stats, tokenize, train, predict, eval, kappa, prune, export-dot, and
loss-check.  Exit codes: 0 success, 1 usage or IO error, 2 validation
failure, 3 check failure.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import gc
import json
import marshal
import os
import sys
import types

from . import __version__, _lazy
from . import corpus, evaluation, losses, model_io, relations, schema, tagger, taxonomy
from ._lazy import numpy as np
from .errors import (
    EmptyDataset,
    FileUnreadable,
    HierGraphError,
    MalformedRecord,
    TrainConfigError,
    UnknownSplit,
)
from .settings import DEFAULT_DISTANCE_CAP, EVAL_MODES, TrainConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2
EXIT_CHECK = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems via exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in its own errors
    return parse


def _meta(taxonomy_hash: str | None = None) -> dict:
    meta = {"version": __version__}
    if taxonomy_hash is not None:
        meta["taxonomy_hash"] = taxonomy_hash
    return meta


def _emit(result, args) -> int:
    """Write ``result`` (label statistics or scores) as JSON under a
    ``_meta`` header to ``-o``, or to stdout with ``--json``; as text to
    stdout otherwise."""
    if args.json or args.output:
        text = json.dumps({"_meta": _meta(), **result.to_json()}, indent=1)
        if args.output:
            with corpus.atomic_write(args.output) as fh:
                fh.write(text + "\n")
        else:
            print(text)
    else:
        sys.stdout.write(result.to_text())
    return EXIT_OK


def _parse_splits(text: str | None) -> tuple[str, ...]:
    """The splits a ``--splits`` value names, in order, with aliases
    resolved through the file loader's split table; every split without
    one."""
    if text is None:
        return schema.SPLITS
    names = [name.strip().lower() for name in text.split(",") if name.strip()]
    if not names:
        raise UnknownSplit("--splits names no split")
    wanted = []
    for name in names:
        split = schema._SPLIT_OBJECT.get(name)
        if split is None:
            raise UnknownSplit(
                f"unknown split {name!r} in --splits (choose from "
                f"{', '.join(schema._SPLIT_OBJECT)})"
            )
        wanted.append(split)
    return tuple(dict.fromkeys(wanted))


# OpenBLAS reads its thread count from the first of these that is set,
# when numpy loads it.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _numpy_first(cmd):
    """Run the subcommand ``cmd`` with numpy loaded before it starts.

    numpy is bound lazily (see ``_lazy``), so its load would otherwise
    land in whichever layer first does array maths, and a per-layer trace
    would charge it to, say, taxonomy building.

    numpy loads on one OpenBLAS thread unless the user chose a count:
    every product the commands run is small, and starting OpenBLAS's
    worker pool is a large part of numpy's load (about 210 ms against
    130 ms on one thread, on a shared 2-CPU VM).  Once numpy's code has
    run in the process, as under an in-process caller of ``main``, the
    variable could no longer change BLAS and would only leak into that
    caller's children, so the environment is left alone.
    """

    @functools.wraps(cmd)
    def run(*args) -> int:
        # The handle stops being a lazy module when numpy's code runs.
        if type(np) is not types.ModuleType and not any(
            name in os.environ for name in _BLAS_THREAD_VARS
        ):
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        _lazy.load(np)
        return cmd(*args)

    return run


# --- subcommands ------------------------------------------------------------


def _cmd_validate(args) -> int:
    failed = False
    for doc_id, record in corpus.report_records(corpus.read_json(args.data)):
        try:
            graph = schema.parse_report(doc_id, record)
        except MalformedRecord as exc:
            print(f"{doc_id}\t[error] malformed_record: {exc.reason}")
            failed = True
            continue
        for v in schema.validate_graph(graph):
            print(f"{doc_id}\t[{v.severity}] {v.rule} {v.subject}: {v.message}")
            if v.severity == "error" or args.strict:
                failed = True
    if failed:
        print("invalid: validation failed", file=sys.stderr)
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def _cmd_stats(args) -> int:
    return _emit(corpus.label_statistics(corpus.load_dataset(args.data)), args)


def _cmd_tokenize(args) -> int:
    for token in corpus.tokenize(corpus.read_text(args.textfile)):
        print(token)
    return EXIT_OK


def _cmd_train(args) -> int:
    # Every setting is checked before numpy loads or any file is opened.
    splits = _parse_splits(args.splits)
    cfg = TrainConfig(
        phase1_epochs=0 if args.flat else args.phase1_epochs,
        phase2_epochs=args.phase2_epochs,
        lr_phase1=args.lr_phase1,
        lr_phase2=args.lr_phase2,
        seed=args.seed,
        batch_size=args.batch_size,
        l2=args.l2,
    )
    cfg.validate()
    if args.distance_cap < 0:
        raise TrainConfigError("--distance-cap must be >= 0")
    return _train(args, splits, cfg)


@_numpy_first
def _train(args, splits, cfg: TrainConfig) -> int:
    tree = taxonomy.load_taxonomy(args.taxonomy)
    subset = corpus.load_dataset(args.data, splits)

    metrics_path = f"{args.output}.metrics.jsonl"
    with corpus.atomic_write(metrics_path) as metrics:
        metrics.write(json.dumps({"_meta": _meta(tree.config_hash)}) + "\n")

        def on_epoch(record):
            metrics.write(json.dumps(record) + "\n")

        params = tagger.train_two_phase(subset, tree, cfg, on_epoch=on_epoch)
        # With the tagger trained on the same reports and config, the only
        # error left to the scorer is having no candidate pairs.
        try:
            scorer = relations.train_relation_scorer(subset, cfg.l2, cap=args.distance_cap)
        except EmptyDataset:
            print(
                f"warning: no entity pairs within distance {args.distance_cap}; "
                "the model has no relation scorer",
                file=sys.stderr,
            )
            scorer = None
        # Inside the block, so that the log is kept only once the model
        # is written.
        model_io.save_model(args.output, tree, params, relations=scorer, train_config=cfg)

    print(f"model written to {args.output}")
    print(f"metrics written to {metrics_path}")
    return EXIT_OK


def _predict_input(doc_id: str, record, head: tuple) -> tuple:
    """The doc id, text, tokens, split and source of a record ``predict``
    selected, from its head: the tokens are the text's whitespace split,
    interned here as the loader interns them.  Its gold entities and
    relations are only checked (``corpus._accepted``), so that a record
    the loader refuses raises the loader's error."""
    corpus._accepted(doc_id, record, head)
    text, split, source, _ = head
    return doc_id, text, tuple(map(sys.intern, text.split())), split, source


def _cmd_predict(args) -> int:
    splits = _parse_splits(args.splits)
    # Both processes run these modules: run them once, before the fork.
    _lazy.load(corpus, schema)
    # The data file is read in a child while this process loads numpy
    # and the model.  The model is loaded first, so its errors win as
    # they would in sequence.
    with _forked(
        f"loading {args.data}", corpus._selected, args.data, splits, _predict_input
    ) as inputs:
        return _predict(args, inputs)


@_numpy_first
def _predict(args, read_inputs) -> int:
    model = model_io.load_model(args.model)
    inputs = read_inputs()
    tokens = [report_tokens for _, _, report_tokens, _, _ in inputs]
    entities = [
        tagger.decode_entities(tags, report_tokens, single_token=args.single_token)
        for tags, report_tokens in zip(
            tagger.predict_tags(model.tagger, model.tree, tokens), tokens
        )
    ]
    predicted_relations = (
        relations.predict_relations(model.relations, entities)
        if model.relations
        else [[] for _ in entities]
    )
    predicted = [
        schema.ReportGraph(
            *report, {e.id: e for e in report_entities}, tuple(report_relations)
        )
        for report, report_entities, report_relations in zip(
            inputs, entities, predicted_relations
        )
    ]
    corpus.save_dataset(
        corpus.Dataset(predicted), args.output, meta=_meta(model.tree.config_hash)
    )
    print(f"predictions written to {args.output}")
    return EXIT_OK


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@contextlib.contextmanager
def _forked(what: str, func, *args):
    """Run ``func(*args)`` in a forked child while the block runs.

    The block gets a function that returns what the call returned, or
    raises what it raised.  The child sends a result back through a pipe
    with ``marshal``, which writes plain data (tuples, lists, strings,
    numbers) about three times as fast as ``pickle`` and keeps interned
    strings interned; an exception, or a result marshal refuses, goes
    through ``pickle``, which is imported only then.  The parent reads
    the whole pipe before it reaps the child.  If the block ends before
    that, the child is killed and reaped.  The child prints nothing and
    ends through ``os._exit``, so it runs no exit handler and flushes no
    inherited buffer.  Without ``os.fork``, or with one usable CPU, the
    call runs in this process instead, when the block asks for its
    result.  ``what`` names the work in the error raised when the child
    ends without a result.
    """
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        yield lambda: func(*args)
        return

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                value = func(*args)
            except BaseException as exc:
                data = _pickled(False, exc)
            else:
                try:
                    data = _MARSHALLED + marshal.dumps(value)
                except ValueError:  # a type marshal does not write
                    data = _pickled(True, value)
            with open(write_fd, "wb") as out:
                out.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    reaped = False

    def result():
        nonlocal reaped
        with pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        # The child exits 0 only once it has written its whole result.
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"{what} ended without a result ({how})")
        body = memoryview(data)[1:]
        if data[:1] == _MARSHALLED:
            return marshal.loads(body)
        import pickle

        ok, value = pickle.loads(body)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# The first byte of what a ``_forked`` child sends: a marshalled result,
# or else a pickled (ok, result or exception) pair.
_MARSHALLED, _PICKLED = b"m", b"p"


def _pickled(ok: bool, value) -> bytes:
    import pickle

    return _PICKLED + pickle.dumps((ok, value), pickle.HIGHEST_PROTOCOL)


def _cmd_eval(args) -> int:
    splits = _parse_splits(args.splits)
    # Both processes run these modules: run them once, before the fork.
    _lazy.load(corpus, evaluation)
    # The prediction file is read in a child while this process reads
    # gold.  Gold is read first, so its errors win as they would in
    # sequence.
    read = evaluation.read_match_keys
    with _forked(f"loading {args.pred}", read, args.pred, splits) as prediction_keys:
        gold = read(args.gold, splits)
        pred = prediction_keys()
    scores = evaluation.evaluate_intersection(
        gold, pred, mode=args.mode, grouped=args.grouped
    )
    return _emit(scores, args)


def _cmd_kappa(args) -> int:
    ds_a = corpus.load_dataset(args.ann_a)
    ds_b = corpus.load_dataset(args.ann_b)
    print(f"{corpus.dataset_kappa(ds_a, ds_b):.4f}")
    return EXIT_OK


def _cmd_prune(args) -> int:
    ds = corpus.load_dataset(args.data)
    pruned = corpus.Dataset([schema.prune_to_radgraph1(r) for r in ds.reports])
    corpus.save_dataset(pruned, args.output, meta=_meta())
    print(f"pruned data written to {args.output}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    ds = corpus.load_dataset(args.data)
    by_id = ds.by_id()
    if args.doc not in by_id:
        print(f"invalid: no report with doc id {args.doc!r}", file=sys.stderr)
        return EXIT_INVALID
    dot = schema.to_dot(by_id[args.doc])
    if args.output:
        with corpus.atomic_write(args.output) as fh:
            fh.write(dot)
        print(f"dot graph written to {args.output}")
    else:
        sys.stdout.write(dot)
    return EXIT_OK


@_numpy_first
def _cmd_loss_check(args) -> int:
    tree = taxonomy.load_taxonomy(args.taxonomy)
    errors = losses.check_loss_gradients(tree, trials=args.trials, seed=args.seed)
    print(f"max gradient rel error (conditional): {errors['conditional']:.3e}")
    print(f"max gradient rel error (unconditional): {errors['unconditional']:.3e}")
    failures = losses.check_loss_invariants(tree, trials=args.trials, seed=args.seed)
    if max(errors.values()) >= 1e-4:
        failures.append("gradient error above 1e-4")
    if failures:
        for f in failures:
            print(f"check failed: {f}", file=sys.stderr)
        return EXIT_CHECK
    print(f"all checks passed ({args.trials} trials)")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="hiergraph", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an annotation file against the schema")
    p.add_argument("data")
    p.add_argument("--strict", action="store_true", help="fail on warnings too")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="label statistics per split and source")
    p.add_argument("data")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("tokenize", help="print one token per line")
    p.add_argument("textfile")
    p.set_defaults(func=_cmd_tokenize)

    p = sub.add_parser("train", help="train the tagger and relation scorer")
    p.add_argument("data")
    p.add_argument("--taxonomy", default="radgraph2_depth3")
    p.add_argument("--flat", action="store_true", help="skip the tree-loss phase")
    defaults = TrainConfig()
    p.add_argument("--phase1-epochs", type=int, default=defaults.phase1_epochs)
    p.add_argument("--phase2-epochs", type=int, default=defaults.phase2_epochs)
    p.add_argument("--lr-phase1", type=float, default=defaults.lr_phase1)
    p.add_argument("--lr-phase2", type=float, default=defaults.lr_phase2)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument(
        "--batch-size", type=int, default=defaults.batch_size,
        help="reports per tagger minibatch; the relation scorer trains full-batch",
    )
    p.add_argument("--l2", type=float, default=defaults.l2)
    p.add_argument("--distance-cap", type=int, default=DEFAULT_DISTANCE_CAP)
    p.add_argument(
        "--splits",
        default="train,validation",
        help="comma-separated splits to train on (default train,validation)",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="run a trained model over reports")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--splits", help="comma-separated splits to predict (default all)")
    p.add_argument("--single-token", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="strict scores of predictions against gold")
    p.add_argument("gold")
    p.add_argument("pred")
    p.add_argument("--mode", choices=EVAL_MODES, default="radgraph2")
    p.add_argument("--grouped", action="store_true")
    p.add_argument("--splits", help="comma-separated splits to score (default all)")
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("kappa", help="token-level agreement between two annotations")
    p.add_argument("ann_a")
    p.add_argument("ann_b")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("prune", help="project annotations onto the 4-label schema")
    p.add_argument("data")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("export-dot", help="write one report graph as DOT")
    p.add_argument("data")
    p.add_argument("--doc", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("loss-check", help="gradient and invariant self-test")
    p.add_argument("--taxonomy", default="radgraph2_depth3")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_loss_check)

    return parser


@functools.cache
def _freeze_at_exit() -> None:
    """Register, once per process, an exit handler that moves every live
    object out of the collector's reach (``gc.freeze``)."""
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    parser = build_parser()
    # The command runs with the cyclic garbage collector paused, and the
    # caller's setting is restored after.  Commands build hundreds of
    # thousands of acyclic objects (decoded JSON, report graphs, counts,
    # entities), which reference counting frees.  With the collector on,
    # allocation alone triggers collections that traverse the growing
    # heap again and again, about a third of ``eval``'s time.
    #
    # A process that runs its own command line (no ``argv``) also freezes
    # the heap at exit.  The interpreter's shutdown collections would
    # otherwise walk every object numpy and the package loaded, to free
    # memory the process is about to give back: a bare ``import numpy``
    # process spends about 20 ms after its last line, against 5 ms
    # frozen.  Frozen objects are skipped, while exit handlers registered
    # earlier, flushing of stdio and module teardown still run, which
    # ``os._exit`` would skip.  An in-process caller, which passes
    # ``argv``, keeps its collector as it was.
    if argv is None:
        _freeze_at_exit()
    collecting = gc.isenabled()
    try:
        args = parser.parse_args(argv)
        gc.disable()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (FileUnreadable, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except HierGraphError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_INVALID
    finally:
        if collecting:
            gc.enable()


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
