"""Seeded synthetic inputs for the benchmark workloads.

Each workload writes its input files once per run; the CLI only ever
reads those files.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from hiergraph.corpus import Dataset
from hiergraph.schema import SOURCES, Relation
from hiergraph.synth import make_random_corpus, make_separable_corpus, perturb_predictions


@dataclass(frozen=True)
class Sizes:
    train: int  # train-split reports
    test: int  # test-split reports
    frames: int = 1  # make_separable_corpus frames joined into one report
    noisy: int = 0  # make_random_corpus reports scored against their perturbation


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_flags: tuple[str, ...]
    full: Sizes
    smoke: Sizes


# Six epochs at raised rates, instead of thirty at the default rates, keep
# one train run near a second and still learn every label of the frames.
SHORT_FLAGS = ("--phase1-epochs", "4", "--phase2-epochs", "2", "--lr-phase1", "0.4", "--lr-phase2", "0.08")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "short-reports",
            "6-token reports, so per-report fixed costs (taxonomy rebuild, "
            "JSON parse, validate, serialize) dominate predict and eval",
            SHORT_FLAGS,
            Sizes(train=500, test=2000),
            Sizes(train=500, test=60),
        ),
        Workload(
            "long-reports",
            "240-token reports with ~100 entities, so per-pair relation "
            "scoring and per-token loss work dominate train and predict",
            # Eight reports make one batch per epoch; the higher rates give
            # the tagger enough updates in twelve epochs to separate CHAN
            # from ANAT-DP.
            ("--phase1-epochs", "8", "--phase2-epochs", "4", "--lr-phase1", "3", "--lr-phase2", "0.6"),
            Sizes(train=8, test=60, frames=40),
            Sizes(train=2, test=3, frames=40),
        ),
        Workload(
            "noisy-eval",
            "overlapping, shifted, relabelled spans and off-schema relations "
            "against gold, so the strict matcher does the most work",
            SHORT_FLAGS,
            Sizes(train=100, test=1000, noisy=15000),
            Sizes(train=24, test=30, noisy=300),
        ),
    )
}


def _concatenate(frames, doc_id: str, split: str, source: str):
    """One report made of ``frames`` in order, entity ids renumbered."""
    tokens, entities, relations = [], {}, []
    for frame in frames:
        offset = len(tokens)
        new_id = {}
        for ent in frame.entities.values():
            new_id[ent.id] = str(len(entities) + 1)
            entities[new_id[ent.id]] = replace(
                ent,
                id=new_id[ent.id],
                start_ix=ent.start_ix + offset,
                end_ix=ent.end_ix + offset,
            )
        relations.extend(
            Relation(new_id[r.source_id], new_id[r.target_id], r.kind)
            for r in frame.relations
        )
        tokens.extend(frame.tokens)
    return replace(
        frames[0],
        doc_id=doc_id,
        text=" ".join(tokens),
        tokens=tuple(tokens),
        split=split,
        source=source,
        entities=entities,
        relations=tuple(relations),
    )


def _separable(split: str, n: int, frames: int, seed: int, rng) -> list:
    """``n`` reports of ``frames`` shuffled separable frames each, with
    unique doc ids and the data source rotating over the three sources."""
    pool = make_separable_corpus(n_reports=n * frames, seed=seed).reports
    order = rng.permutation(len(pool))
    return [
        _concatenate(
            [pool[j] for j in order[i * frames : (i + 1) * frames]],
            f"{split}-{i:05d}",
            split,
            SOURCES[i % len(SOURCES)],
        )
        for i in range(n)
    ]


def build(workload: Workload, seed: int, smoke: bool = False) -> dict[str, Dataset]:
    """Input file name -> dataset.

    ``data.json`` holds the train and test splits the model is trained
    and run on.  With ``noisy`` reports, ``gold.json`` and ``noisy.json``
    hold the random corpus and its perturbation, which ``eval`` scores.
    """
    sizes = workload.smoke if smoke else workload.full
    rng = np.random.default_rng(seed)
    files = {
        "data.json": Dataset(
            _separable("train", sizes.train, sizes.frames, seed, rng)
            + _separable("test", sizes.test, sizes.frames, seed + 1, rng)
        )
    }
    if sizes.noisy:
        gold = Dataset(
            [
                replace(r, split="test")
                for r in make_random_corpus(n_reports=sizes.noisy, seed=seed).reports
            ]
        )
        files["gold.json"] = gold
        files["noisy.json"] = perturb_predictions(gold, seed=seed)
    return files
