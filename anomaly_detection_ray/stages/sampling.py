"""Deterministic stratified sampling — the dataset-mixing primitive of a
training-data pipeline ("keep 50% of en, 25% of de, 10% of the rest").

Selection is a pure function of the row id: Knuth multiplicative hashing
on ``id + seed`` compared against a per-stratum threshold. That buys

- reproducibility (no RNG state, no partition-order dependence — the
  same row is kept or dropped no matter how blocks are split),
- resumability (rerunning over the same input selects the same rows),
- an EXACT ANSI-SQL twin: ``((id + seed)::HUGEINT * 2654435761) %
  4294967296 < threshold`` is the identical formula, so the driver's
  DuckDB oracle verifies the sample row-for-row,
- and one stateless ``map_batches`` with NO shuffle: each task needs
  only the broadcast fractions dict.

Consecutive ids advance the hash by the golden-ratio constant, so the
kept set behaves like a low-discrepancy sequence: per-stratum sample
sizes track ``fraction × n`` more tightly than Bernoulli sampling (the
reference's profile/preview paths subsample with dedicated queries, e.g.
page-limited composite aggs; this is the corpus-scale analogue).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Knuth's multiplicative constant (2^32 / golden ratio, odd)
KNUTH_C = 2654435761
_M32 = np.uint64(0xFFFFFFFF)


def sample_hash_u32(ids: np.ndarray, seed: int = 0) -> np.ndarray:
    """Low 32 bits of ``(id + seed) * KNUTH_C`` — matches the SQL twin's
    ``((id + seed)::HUGEINT * 2654435761) % 4294967296`` exactly (low 32
    bits of the full product are invariant to the mod-2^64 wrap)."""
    x = (ids.astype(np.uint64) + np.uint64(seed)) * np.uint64(KNUTH_C)
    return (x & _M32).astype(np.int64)


def stratum_thresholds(fractions: dict, default_fraction: float = 0.0) -> dict:
    """fraction ∈ [0, 1] → integer threshold on the 32-bit hash. Shared
    by the Ray path and the SQL-twin generator so both sides round the
    same way."""
    out = {k: int(round(float(v) * 2**32)) for k, v in fractions.items()}
    out[None] = int(round(float(default_fraction) * 2**32))
    return out


def stratified_sample(ds, id_col: str, strata_col: str, fractions: dict,
                      default_fraction: float = 0.0, seed: int = 0):
    """→ the sampled Dataset (all input columns kept). ``fractions``
    maps stratum value → keep fraction; unlisted strata use
    ``default_fraction``. Deterministic in (id, seed) only."""
    thr = stratum_thresholds(fractions, default_fraction)
    default_thr = thr[None]

    def keep(batch: pa.Table) -> pa.Table:
        import pandas as pd

        ids = batch[id_col].to_numpy().astype(np.int64)
        h = sample_hash_u32(ids, seed)
        # factorize, not np.unique: tolerates null strata (code -1 →
        # default fraction, matching the SQL CASE's ELSE on NULL)
        codes, uniques = pd.factorize(np.asarray(batch[strata_col].to_pylist(), dtype=object))
        if len(uniques) == 0:  # all-null stratum column
            thr_row = np.full(ids.size, default_thr, np.int64)
        else:
            thr_u = np.fromiter((thr.get(v, default_thr) for v in uniques),
                                dtype=np.int64, count=len(uniques))
            thr_row = np.where(codes >= 0, thr_u[np.maximum(codes, 0)], default_thr)
        return batch.filter(pa.array(h < thr_row))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def stratified_sample_sql(table: str, id_col: str, strata_col: str, fractions: dict,
                          default_fraction: float = 0.0, seed: int = 0,
                          columns: str = "*") -> str:
    """The DuckDB twin of :func:`stratified_sample` (same thresholds,
    same hash formula)."""
    thr = stratum_thresholds(fractions, default_fraction)
    cases = " ".join(
        f"WHEN '{k}' THEN {v}" for k, v in sorted((k, v) for k, v in thr.items() if k is not None)
    )
    return (
        f"SELECT {columns} FROM {table} "
        f"WHERE (({id_col} + {seed})::HUGEINT * {KNUTH_C}) % 4294967296 "
        f"< (CASE {strata_col} {cases} ELSE {thr[None]} END) "
        f"ORDER BY {id_col}"
    )


def temperature_fractions(counts: dict, alpha: float) -> dict:
    """Per-stratum keep fractions for TEMPERATURE sampling: the output
    distribution follows p_s^alpha (the multilingual-rebalancing rule of
    public LLM pipelines — alpha<1 upweights rare sources), realized as
    f_s = (n_s / n_min)^(alpha-1) so the rarest stratum keeps 100% and
    no stratum oversamples. Plain-float pow so the SQL twin's pow()
    computes the identical thresholds."""
    if not counts:
        return {}
    cmin = min(counts.values())
    return {s: (c / cmin) ** (alpha - 1.0) for s, c in counts.items()}


def temperature_mix(ds, id_col: str, strata_col: str, alpha: float, seed: int = 0):
    """Temperature-mix a corpus by a source/language column: per-block
    stratum counts summed in the driver (stratum-cardinality rows) →
    keep fractions → the same deterministic hash-threshold selection as
    :func:`stratified_sample`. No shuffle of the corpus itself."""

    def partial(b: pa.Table) -> pa.Table:
        if not b.num_rows:  # a zero-row block may have no columns
            return pa.table({"s": pa.array([]), "c": pa.array([], pa.int64())})
        vc = pc.value_counts(b[strata_col])
        return pa.table({"s": vc.field("values"), "c": vc.field("counts")})

    counts: dict = {}
    rows = ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True).take_all()
    for r in rows:
        counts[r["s"]] = counts.get(r["s"], 0) + r["c"]
    fractions = temperature_fractions(counts, alpha)
    return stratified_sample(ds, id_col, strata_col, fractions,
                             default_fraction=0.0, seed=seed)


def temperature_mix_sql(table: str, id_col: str, strata_col: str, alpha: float,
                        seed: int = 0, columns: str = "*") -> str:
    """DuckDB twin of :func:`temperature_mix` — computes the per-stratum
    counts AND the identical pow/round thresholds inside the query, so
    the oracle derives nothing from the engine."""
    return f"""
WITH n AS (SELECT {strata_col} AS s, count(*) AS c FROM {table} GROUP BY 1),
m AS (SELECT min(c) AS cmin FROM n),
f AS (SELECT s, CAST(round(pow(c * 1.0 / (SELECT cmin FROM m), {alpha} - 1.0)
                           * 4294967296) AS BIGINT) AS thr FROM n)
SELECT {columns} FROM {table} t JOIN f ON t.{strata_col} = f.s
WHERE ((t.{id_col} + {seed})::HUGEINT * {KNUTH_C}) % 4294967296 < f.thr
ORDER BY t.{id_col}
"""
