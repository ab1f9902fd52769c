"""The settings the CLI's parser offers, and their defaults.

Kept apart from the modules that use them (``tagger``, ``evaluation``,
``relations``) so that building the parser, and rejecting a bad
``train`` setting, runs none of those modules' code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TrainConfigError

EVAL_MODES = ("radgraph2", "radgraph1-common")

DEFAULT_DISTANCE_CAP = 20


@dataclass
class TrainConfig:
    phase1_epochs: int = 20
    phase2_epochs: int = 10
    lr_phase1: float = 0.1
    lr_phase2: float = 0.02
    seed: int = 0
    batch_size: int = 8
    l2: float = 0.0
    window: int = 2
    embed_dim: int = 32

    def validate(self) -> None:
        if self.phase1_epochs < 0 or self.phase2_epochs < 0:
            raise TrainConfigError("epoch counts must be >= 0")
        if not (0 < self.lr_phase1 < math.inf and 0 < self.lr_phase2 < math.inf):
            raise TrainConfigError("learning rates must be positive and finite")
        if self.lr_phase2 >= self.lr_phase1:
            raise TrainConfigError("phase two must use a smaller learning rate")
        if self.batch_size < 1:
            raise TrainConfigError("batch_size must be >= 1")
        if self.seed < 0:
            raise TrainConfigError("seed must be >= 0")
        if not 0 <= self.l2 < math.inf:
            raise TrainConfigError("l2 must be finite and >= 0")
        if self.window < 0:
            raise TrainConfigError("window must be >= 0")
        if self.embed_dim < 1:
            raise TrainConfigError("embed_dim must be >= 1")
