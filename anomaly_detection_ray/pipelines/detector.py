"""End-to-end anomaly-detection pipelines — SURVEY.md §3 redesigns.

The reference's realtime-HC interval tick (§3.1), historical batch run
(§3.2) and deterministic preview (§3.3) all collapse into one raw-Ray
task graph, with no Ray Data execution in a job tick:

    events → split tasks, one per byte-sized range of Parquet row groups
             (or per block of a Dataset): filter, window partials
             (entity+window, §2.A), model_id projection (B8: murmur3
             entity hash, reference recipe), split by hash(model_id) % P
           → exchange_by_key: one ScoreGroups reducer task per part:
             partials merged (B1 NaN semantics), models scored  # C1–C4
           → results (flat anomaly-result schema), written by each
             reducer for its own part in a job tick (``stages.sink``)

Transport hops, rate-limited queues, the hash ring, afterKey pagination
and piece scheduling all disappear (SURVEY.md §4 table). The exchange is
a barrier: every scoring task is submitted once its pieces are, when
``detect()`` is called, not when its result is consumed.

``detect(..., checkpoint_dir=...)`` gives realtime semantics (models
continue across runs); without it each run is a self-contained
historical/preview pass (cold start inside the run, deterministic for a
fixed config.seed). No stage of the plan starts an actor pool:
scoring runs as plain tasks in the session's warm worker processes
(see ``stages.scorer``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DetectorConfig
from ..functions.hashing import entity_model_id
from ..stages.exchange import exchange_by_key, top_k_by_key
from ..stages.scorer import ScoreGroups
from ..stages.window import entity_windows


def needed_columns(config: DetectorConfig, ts_col: str = "ts") -> list[str]:
    """The exact column set detect()/forecast() consume — pass as
    ``read_parquet(columns=…)`` so the scan never decodes dead columns
    (Ray does not push ``select_columns`` into the parquet read; measured
    3.4× scan-bytes reduction on the events table)."""
    from ..functions.rowfilter import predicate_fields

    return sorted(
        {ts_col, *config.category_fields, *(f.column for f in config.features)}
        | predicate_fields(config.filter_query)
    )


def _add_model_id(batch: pa.Table, config: DetectorConfig) -> pa.Table:
    cats = list(config.category_fields)
    if not cats:
        mid = pa.array([config.config_id] * batch.num_rows, pa.string())
        return batch.append_column("model_id", mid)
    # vectorize over unique entity combos: compute the murmur3 id once per
    # combo, then gather (batches repeat few entities many times)
    cols = [batch[c].to_pylist() for c in cats]
    combos = list(zip(*cols)) if cols else []
    uniq: dict = {}
    for combo in combos:
        if combo not in uniq:
            uniq[combo] = entity_model_id(config.config_id, dict(zip(cats, map(str, combo))))
    mid = np.asarray([uniq[c] for c in combos], dtype=object)
    return batch.append_column("model_id", pa.array(mid, pa.string()))


def detect(
    events,
    config: DetectorConfig,
    ts_col: str = "ts",
    checkpoint_dir: str | None = None,
    time_range_ms: tuple[int, int] | None = None,
    detailed: bool = False,
    cold_start_history: bool = True,
):
    """events (a Dataset, or ``stages.exchange.ParquetFiles``) → anomaly
    results Dataset (one row per entity-window): the Dataset of
    :func:`detect_parts`' tables.

    Not lazy: the call runs the split tasks and submits the scoring
    tasks, which save each model's checkpoint (``checkpoint_dir``) before
    the caller writes the results (ROADMAP item 1).

    ``detailed=True`` (implied by ``config.rules``) adds per-feature
    expected values, attribution and past values to each row.

    ``cold_start_history`` (with a ``time_range_ms``): models that have
    no checkpoint train on the ``max(32, history_intervals)`` (+shingle)
    windows immediately PRECEDING the range before scoring it — the
    reference's cold-start sample fetch (``ModelColdStart.java:217-339``,
    most-recent history intervals, ≤2 rounds back;
    ``SearchFeatureDao.java:1149-1169``). Training rows are processed but
    not emitted, so scores inside the range match a run that had seen the
    history live."""
    import ray.data as rd

    return rd.from_arrow_refs(detect_parts(events, config, ts_col, checkpoint_dir, time_range_ms,
                                           detailed, cold_start_history))


def detect_parts(events, config: DetectorConfig, ts_col: str = "ts",
                 checkpoint_dir: str | None = None, time_range_ms: tuple[int, int] | None = None,
                 detailed: bool = False, cold_start_history: bool = True, then=None) -> list:
    """:func:`detect`'s exchange: the reducers' refs, each part's result
    table, or ``then(table)`` run on it inside the reducer (a tick's
    result write, ``stages.sink.write_part``: its rows written)."""
    agg_range = time_range_ms
    if time_range_ms is not None and cold_start_history:
        n_hist = max(32, config.history_intervals) + config.shingle_size
        agg_range = (time_range_ms[0] - n_hist * config.interval_s * 1000, time_range_ms[1])
    windows, empty = entity_windows(events, config, ts_col, agg_range)

    def project(b: pa.Table) -> pa.Table:
        return _add_model_id(windows(b), config)

    score = ScoreGroups(config, checkpoint_dir=checkpoint_dir, detailed=detailed)
    lo = time_range_ms[0] if agg_range is not time_range_ms else None

    def stage(group: pa.Table):
        out = score(group)
        if lo is not None:  # cold-start training rows are scored, not emitted
            out = out.filter(pc.greater_equal(out["window_start_ms"], lo))
        return out if then is None else then(out)

    return exchange_by_key(events, project, ["model_id"], stage, empty)


def top_anomaly_results(results_ds, config: DetectorConfig, k: int = 10, by: str = "anomaly_grade"):
    """§2.A13: group results by entity, order by max grade/score, ties by
    the entity keys ascending, top-k
    (``SearchTopAnomalyResultTransportAction.java:74-160``): one
    per-entity exchange over the result rows (``top_k_by_key``). Returns
    a pandas frame (entity keys…, ``max_<by>``)."""
    keys = list(config.category_fields) or ["model_id"]
    name = f"max_{by}"

    def entity_max(part: pa.Table) -> pa.Table:
        return part.group_by(keys, use_threads=False).aggregate([(by, "max")]).rename_columns([*keys, name])

    order = [(name, "descending"), *((c, "ascending") for c in keys)]
    return top_k_by_key(results_ds, keys, entity_max, order, k,
                        lambda: results_ds.schema().base_schema.empty_table()).to_pandas()
