"""Run one hiergraph command with a timing span around each layer call.

    python3 perfbench/tracer.py SPANS.json -- train data.json -o model.json

The tracer wraps the public functions listed in ``TARGETS`` wherever the
package binds them, including the names other modules imported with
``from ... import``, then calls ``hiergraph.cli.main`` with the given
arguments.  Spans (name, start, end, parent) are kept in memory and
written to SPANS.json with per-function call counts, self times and a
few work counters when the command ends.  The exit code is the
command's.  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter

# (module, function) of every wrapped layer entry point.
TARGETS = (
    ("cli", "main"),
    ("corpus", "load_dataset"),
    ("corpus", "save_dataset"),
    ("corpus", "to_token_labeling"),
    ("schema", "parse_report"),
    ("schema", "validate_graph"),
    ("schema", "serialize_report"),
    ("taxonomy", "load_taxonomy"),
    ("taxonomy", "TaxonomyTree.from_edges"),
    ("losses", "conditional_hier_loss"),
    ("losses", "unconditional_loss"),
    ("tagger", "train_two_phase"),
    ("tagger", "predict_tags"),
    ("tagger", "decode_entities"),
    ("relations", "train_relation_scorer"),
    ("relations", "candidate_pairs"),
    ("relations", "predict_relations"),
    ("evaluation", "evaluate_intersection"),
    ("evaluation", "evaluate_report"),
    ("model_io", "save_model"),
    ("model_io", "load_model"),
)


def _arg(args, kwargs, position: int, keyword: str):
    return args[position] if len(args) > position else kwargs[keyword]


def _file_bytes(position: int, keyword: str):
    def count(tracer, name, args, kwargs, result):
        tracer.counts[f"{name}.bytes"] += os.path.getsize(_arg(args, kwargs, position, keyword))

    return count


def _clamped(tracer, name, args, kwargs, result):
    tracer.counts["losses.clamped"] += result.clamped


def _pairs(tracer, name, args, kwargs, result):
    tracer.counts[f"{name}.pairs"] += len(result)
    if tracer.open_span() == "relations.predict_relations":
        tracer.counts["relations.predict_relations.scored"] += len(result)


def _kept(tracer, name, args, kwargs, result):
    tracer.counts[f"{name}.kept"] += len(result)


def _tokens(tracer, name, args, kwargs, result):
    tracer.counts[f"{name}.tokens"] += len(_arg(args, kwargs, 2, "tokens"))


# Work counters taken from a wrapped call's arguments or result, after
# its span has closed.
COUNTERS = {
    "corpus.load_dataset": _file_bytes(0, "path"),
    "corpus.save_dataset": _file_bytes(1, "path"),
    "model_io.save_model": _file_bytes(0, "path"),
    "losses.conditional_hier_loss": _clamped,
    "losses.unconditional_loss": _clamped,
    "relations.candidate_pairs": _pairs,
    "relations.predict_relations": _kept,
    "tagger.predict_tags": _tokens,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # [name index, start ns, end ns, parent span index or -1]
        self.spans: list[list[int]] = []
        # [span index, start ns, ns covered by child spans] per open span
        self.stack: list[list[int]] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.bindings: dict[str, list[str]] = {}

    def wrap(self, name: str, func):
        fid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(self.spans)
            start = clock()
            self.spans.append([fid, start, 0, self.stack[-1][0] if self.stack else -1])
            frame = [index, start, 0]
            self.stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                self.spans[index][2] = end
                self.stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[2]
                if self.stack:
                    self.stack[-1][2] += duration
            if counter is not None:
                counter(self, name, args, kwargs, result)
            return result

        return functools.wraps(func)(traced)

    def open_span(self) -> str | None:
        """Name of the innermost span still open."""
        return self.names[self.spans[self.stack[-1][0]][0]] if self.stack else None

    def install(self) -> None:
        """Replace every binding of each target in the hiergraph modules."""
        importlib.import_module("hiergraph.cli")
        modules = {
            n: m for n, m in sys.modules.items() if n == "hiergraph" or n.startswith("hiergraph.")
        }
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname}"
            owner = modules[f"hiergraph.{module_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                method = cls.__dict__[attr]
                if not isinstance(method, classmethod):
                    raise TypeError(f"{name} is not a classmethod")
                setattr(cls, attr, classmethod(self.wrap(name, method.__func__)))
                self.bindings[name] = [f"hiergraph.{module_name}.{qualname}"]
                continue
            func = getattr(owner, qualname)
            wrapper = self.wrap(name, func)
            bound = [
                (m, attr)
                for m in modules.values()
                for attr, value in vars(m).items()
                if value is func
            ]
            for m, attr in bound:
                setattr(m, attr, wrapper)
            self.bindings[name] = sorted(f"{m.__name__}.{attr}" for m, attr in bound)

    def summary(self) -> dict:
        return {
            "names": self.names,
            "calls": {n: self.calls[n] for n in self.names},
            "self_s": {n: self.self_ns[n] / 1e9 for n in self.names},
            "counts": dict(self.counts),
            "bindings": self.bindings,
            "spans": self.spans,
        }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    out, command = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = sys.modules["hiergraph.cli"].main(command)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
