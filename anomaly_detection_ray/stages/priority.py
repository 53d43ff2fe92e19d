"""Time-decayed priority top-k — SURVEY.md §2.D3.

Reimplements the math of ``timeseries/caching/PriorityTracker.java``
(used by the historical HC path, ``ADBatchTaskRunner.java:318-410``, to
pick the top-1000 entities): each occurrence of an entity in period
``n`` (periods since the detector's landmark) contributes weight
``g(n) = e^{0.125·n}``; an entity's priority is the log of its
accumulated weighted count — PriorityTracker's sequential
``p += log(1 + e^{inc−p})`` update telescopes to exactly
``log Σ_j g(n_j)`` over the entity's occurrences, so one sum per entity
reproduces the streaming accumulation bit-for-bit in exact arithmetic.

Computed stably as ``log Σ count_n · e^{0.125(n−m)} + 0.125·m`` with
``m`` the entity's OWN newest period (log-sum-exp shift: its largest
term is ``count_m``, so an entity idle for any number of periods before
the newest event keeps a finite priority). Two-phase on the per-entity
exchange: per-block (entity, period) counts on the map side, then each
reducer weighs its entities and keeps its top k — recent periods
dominate, so hot entities stay hot and idle ones decay, without any
per-event state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

DECAY = 0.125  # PriorityTracker's g(n) = e^{0.125 n}


def decayed_top_entities(
    ds,
    entity_col: str,
    ts_col: str = "ts",
    period_ms: int = 600_000,
    k: int = 10,
    decay: float = DECAY,
    landmark_ms: int = 0,
):
    """events Dataset → top-k entities by time-decayed occurrence count.

    Returns a pandas DataFrame (entity_col, priority) ordered by
    priority desc, entity asc; priority rounded to 6 decimals."""
    from .exchange import top_k_by_key
    from .window import _group_codes, _ts_ms_numpy

    def period_counts(b: pa.Table) -> pa.Table:
        n = (_ts_ms_numpy(b, ts_col) - landmark_ms) // period_ms
        t = pa.table({entity_col: b[entity_col], "n": pa.array(n, pa.int64())})
        return t.group_by([entity_col, "n"], use_threads=False).aggregate(
            [([], "count_all")]).rename_columns([entity_col, "n", "cnt"])

    def weigh(part: pa.Table) -> pa.Table:
        # sorted, so each entity's rows are contiguous, its last row holds
        # its newest period and the float sum runs in one fixed order
        part = part.take(pc.sort_indices(part, [(c, "ascending") for c in (entity_col, "n", "cnt")]))
        codes, n_groups = _group_codes(part, [entity_col])
        n = part["n"].to_numpy()
        last = np.flatnonzero(np.diff(codes, append=n_groups))
        w = part["cnt"].to_numpy() * np.exp(decay * (n - n[last][codes]))
        return pa.table({entity_col: part[entity_col].take(last),
                         "priority": np.round(np.log(np.bincount(codes, w, n_groups)) + decay * n[last], 6)})

    counts = ds.map_batches(period_counts, batch_format="pyarrow", zero_copy_batch=True)
    return top_k_by_key(counts, [entity_col], weigh, [("priority", "descending"), (entity_col, "ascending")],
                        k, lambda: period_counts(ds.schema().base_schema.empty_table())).to_pandas()
