"""ECDF thresholding model — reimplements the semantics of the
reference's ``HybridThresholdingModel``
(``ad/ml/HybridThresholdingModel.java:39-58,226-252,293-362``):

- ECDF over observed anomaly scores.
- ``grade(score) = max(0, (rank(score) − p) / (1 − p))`` for
  ``score > min_score`` (MIN_SCORE 0.4, p 0.995), NaN → 0.
- Deterministic downsampling to ``max_size`` evenly-spaced quantiles
  once the buffer exceeds ``2·max_size`` (the reference downsamples its
  KLL sketch at 1M observations to 10k quantiles).

The quantile store is a sorted numpy array instead of a KLL sketch —
exact at our per-model observation counts, mergeable by concatenation,
and byte-deterministic. Serialization is the array itself (the analogue
of ``KllFloatsSketchSerDe.java``).
"""

from __future__ import annotations

import numpy as np


class ThresholdModel:
    CONFIDENCE = 0.99  # HybridThresholdingModel.CONFIDENCE

    def __init__(self, min_score: float = 0.4, p: float = 0.995, max_size: int = 10_000):
        self.min_score = min_score
        self.p = p
        self.max_size = max_size
        self._sorted = np.empty(0, dtype=np.float64)
        self._pending: list[float] = []
        self.n_total = 0

    # ---- updates ----

    def update(self, score: float) -> None:
        self._pending.append(float(score))
        self.n_total += 1
        if len(self._pending) >= 256:
            self._flush()

    def _flush(self) -> None:
        if self._pending:
            self._sorted = np.sort(np.concatenate([self._sorted, np.asarray(self._pending)]))
            self._pending.clear()
        if self._sorted.size > 2 * self.max_size:
            idx = np.unique(np.linspace(0, self._sorted.size - 1, self.max_size).round().astype(np.int64))
            self._sorted = self._sorted[idx]

    # ---- queries ----

    def rank(self, score: float) -> float:
        self._flush()
        n = self._sorted.size
        if n == 0:
            return 0.0
        return float(np.searchsorted(self._sorted, score, side="left")) / n

    def grade(self, score: float) -> float:
        if not np.isfinite(score) or score <= self.min_score:
            return 0.0
        g = (self.rank(score) - self.p) / (1.0 - self.p)
        if np.isnan(g):
            return 0.0
        return max(0.0, min(1.0, g))

    def confidence(self) -> float:
        return self.CONFIDENCE

    # ---- serde (checkpointing) ----

    def to_state(self) -> dict:
        self._flush()
        return {
            "min_score": self.min_score,
            "p": self.p,
            "max_size": self.max_size,
            "sorted": self._sorted.copy(),
            "n_total": self.n_total,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ThresholdModel":
        m = cls(state["min_score"], state["p"], state["max_size"])
        m._sorted = np.asarray(state["sorted"], dtype=np.float64)
        m.n_total = int(state["n_total"])
        return m
