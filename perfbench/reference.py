"""Fixed reference work, timed next to every step to gauge the machine's speed.

    python3 perfbench/reference.py [--start]

A fresh interpreter that imports numpy and json; with ``--start`` it
stops there, as a reference for the CLI's bare start-up.  Otherwise it
then does a fixed mix of the work the CLI does: a pure-Python loop, JSON
round trips of small documents with dict counting, and small numpy
matrix products.  Large
matrix products are left out: BLAS runs them on several threads, which
makes them slow down differently from the single-threaded CLI.  It never
imports hiergraph, so a change to the package cannot move it; a machine
that is slower for a while stretches it and the steps run next to it
alike.  ``run.py`` divides each step's wall time by the mean wall time
of the reference runs of its kind just before and just after it.
"""

import json
import sys

import numpy as np

if sys.argv[1:] == ["--start"]:
    sys.exit(0)

total = 0
for i in range(600_000):
    total += i * i % 7

docs = [
    {
        "id": f"d{i}",
        "tokens": [f"t{(i * j) % 97}" for j in range(i % 40 + 20)],
        "spans": [[j, j + 2, "ANAT"] for j in range(0, 20, 3)],
    }
    for i in range(1500)
]
counts = {}
for _ in range(3):
    docs = json.loads(json.dumps(docs))
    for doc in docs:
        for token in doc["tokens"]:
            counts[token] = counts.get(token, 0) + 1

# Arrays small enough that BLAS runs them on one thread, as the CLI's are.
rng = np.random.default_rng(0)
w = rng.random((40, 40))
x = rng.random((200, 40))
for _ in range(400):
    x = np.tanh(x @ w)
    x -= x.mean(axis=0)

assert len(counts) == 97 and total > 0 and np.isfinite(x).all()
