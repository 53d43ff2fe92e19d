"""Forecasting pipeline — the ``forecast/`` side of the reference
(``ForecastJobProcessor`` / ``ForecastRealTimeInferencer`` /
``RCFCasterResult``), Ray-Data-first:

    events → window partials (same §2.A surface as detection)
           → exchange_by_key(entity): raw-Ray split by hash(entity) % P,
             one ForecastGroups reducer task per part
           → one row per (entity, horizon step): value, lower, upper

Each entity's windows are processed in order through a
:class:`~..state.forecaster.HoltWintersForecaster`; the emitted rows are
the forecast made at the entity's LAST observed window (the realtime
"forecast from now" shape; ``horizon`` windows ahead), mirroring the
ForecastResult row schema (forecast_value / lower / upper bounds /
confidence + the forecast window's time range).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DetectorConfig
from ..stages.exchange import exchange_by_key, top_k_by_key
from ..stages.window import entity_windows, per_entity


class ForecastGroups:
    """One exchange part's forecaster: each entity's windows in order.
    With ``checkpoint_dir`` the forecaster state is restored before
    processing and saved after — a later run over newer windows
    CONTINUES the stream (the forecast job tick,
    ``forecast/ForecastJobProcessor`` semantics); overlapping windows
    are dropped as out-of-order, so reruns are idempotent."""

    def __init__(self, value_col: str, interval_ms: int, horizon: int, period: int,
                 entity_cols: tuple[str, ...], config: DetectorConfig, output_after: int = 32,
                 confidence: float = 0.9, checkpoint_dir: str | None = None,
                 config_id: str = "forecast", backend: str = "holt_winters", seed: int = 0):
        from ..state.checkpoint import CheckpointStore

        if backend not in ("holt_winters", "rcf"):
            raise ValueError(f"unknown forecast backend {backend!r}")
        self.value_col = value_col
        self.interval_ms = interval_ms
        self.horizon = horizon
        self.period = period
        self.entity_cols = list(entity_cols)
        self.output_after = output_after
        self.confidence = confidence
        self.config_id = config_id
        self.store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        self.config = config  # merges the group's window partials
        self.backend = backend
        self.seed = seed

    def _new_forecaster(self, model_id: str):
        from ..functions.hashing import murmur3_x64_128
        from ..state.forecaster import HoltWintersForecaster, RCFForecaster

        if self.backend == "rcf":
            return RCFForecaster(
                horizon=self.horizon,
                seed=(self.seed ^ murmur3_x64_128(model_id.encode())[0]) & 0xFFFFFFFFFFFFFFFF,
                output_after=self.output_after, confidence=self.confidence,
            )
        return HoltWintersForecaster(
            horizon=self.horizon, period=self.period,
            output_after=self.output_after, confidence=self.confidence,
        )

    def __call__(self, group: pa.Table) -> pa.Table:
        # The group holds MANY entities (see ``stages.window.per_entity``);
        # each stream is forecast independently, in entity order.
        return per_entity(group, self.entity_cols, self._forecast_entity, self.config)

    def _forecast_entity(self, sub: pa.Table) -> pa.Table:
        # one entity's windows, merged and sorted by per_entity; a
        # zero-row slice (no entity left in the part) runs the same code
        # on a forecaster neither loaded nor saved: no forecast, no row
        store = self.store if sub.num_rows else None
        first = sub.slice(0, 1).select(self.entity_cols)
        model_id = "forecast_" + self.config_id + "_" + "|".join(
            str(v) for row in first.to_pylist() for v in row.values()
        )
        f = None
        last_end = None
        if store is not None:
            state = store.load_state(model_id)
            if state is not None:
                f = state["forecaster"]
                last_end = state["last_window_end"]
        if f is None:
            f = self._new_forecaster(model_id)
        vals = sub[self.value_col].to_numpy()
        for v, we in zip(vals, sub["window_end_ms"].to_numpy()):
            if last_end is not None and we <= last_end:
                continue  # out-of-order drop (§2.F)
            f.update(0.0 if not np.isfinite(v) else float(v))
            last_end = int(we)
            f.record_forecast()  # error bookkeeping only; bounds computed once below
        if store is not None:
            store.save_state(
                model_id, {"forecaster": f, "last_window_end": last_end},
                n_points=f.n_points, last_window_end=last_end,
            )
        fc = f.forecast()
        if fc is None:  # warming up, or no window: the same columns, no row
            fc = {"values": np.empty(0), "lower": np.empty(0), "upper": np.empty(0), "confidence": 0.0}
        h = np.arange(1, len(fc["values"]) + 1, dtype=np.int64)
        out = pa.table({
            "horizon_index": h,
            "forecast_window_start_ms": (last_end or 0) + (h - 1) * self.interval_ms,
            "forecast_window_end_ms": (last_end or 0) + h * self.interval_ms,
            "forecast_value": np.round(fc["values"], 6),
            "forecast_lower": np.round(fc["lower"], 6),
            "forecast_upper": np.round(fc["upper"], 6),
            "confidence": np.full(h.size, fc["confidence"], dtype=np.float64),
        })
        ents = first.take(np.zeros(h.size, dtype=np.int64))
        for c in self.entity_cols:
            out = out.append_column(c, ents[c])
        return out


BUILD_IN_QUERIES = (
    "MIN_CONFIDENCE_INTERVAL_WIDTH",
    "MAX_CONFIDENCE_INTERVAL_WIDTH",
    "MIN_VALUE_WITHIN_THE_HORIZON",
    "MAX_VALUE_WITHIN_THE_HORIZON",
    "DISTANCE_TO_THRESHOLD_VALUE",
)
RELATIONS = {
    "GREATER_THAN": pc.greater,
    "GREATER_THAN_OR_EQUAL_TO": pc.greater_equal,
    "LESS_THAN": pc.less,
    "LESS_THAN_OR_EQUAL_TO": pc.less_equal,
}


def forecast_ranking(build_in_query: str, threshold: float | None = None,
                     relation: str = "GREATER_THAN") -> tuple[str, str]:
    """The column a built-in query ranks by and its per-entity agg
    (``min``/``max``). A malformed request raises ``ValueError`` here, in
    the driver, before any Ray work."""
    if build_in_query not in BUILD_IN_QUERIES:
        raise ValueError(f"unknown build_in_query {build_in_query!r}")
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r} (one of {sorted(RELATIONS)})")
    if build_in_query == "DISTANCE_TO_THRESHOLD_VALUE":
        if threshold is None:
            raise ValueError("DISTANCE_TO_THRESHOLD_VALUE needs a threshold")
        return "forecast_value", "max" if relation.startswith("GREATER") else "min"
    col = "interval_width" if build_in_query.endswith("INTERVAL_WIDTH") else "forecast_value"
    return col, build_in_query[:3].lower()


def top_forecast_results(
    forecast_ds,
    config: DetectorConfig,
    k: int = 5,
    build_in_query: str = "MAX_VALUE_WITHIN_THE_HORIZON",
    horizon: int | None = None,
    threshold: float | None = None,
    relation: str = "GREATER_THAN",
):
    """Top-k entities over forecast rows — the forecast analogue of
    _topAnomalies (``forecast/transport/SearchTopForecastResult
    TransportAction.java:601-830``): a terms aggregation over the entity
    split ordered by one built-in sub-aggregation, tie-broken by entity
    key ascending (``_key: asc``).

    Built-ins mirror ``BuildInQuery``:
    - MIN/MAX_CONFIDENCE_INTERVAL_WIDTH: only the latest forecast rows
      (``horizon_index == horizon``, the reference's term filter on the
      configured horizon), agg min/max of ``upper − lower``, asc/desc.
    - MIN/MAX_VALUE_WITHIN_THE_HORIZON: no extra filter, min/max of
      ``forecast_value``, asc/desc.
    - DISTANCE_TO_THRESHOLD_VALUE: range-filter ``forecast_value``
      vs ``threshold`` per ``relation`` (GREATER_THAN[_OR_EQUAL_TO] →
      max desc; LESS_THAN[_OR_EQUAL_TO] → min asc).

    One per-entity exchange over the forecast rows (``top_k_by_key``);
    the filter and the agg run in its reducers. Returns a pandas frame
    (category fields…, ``build_in_query``).
    """
    col, fn = forecast_ranking(build_in_query, threshold, relation)
    cats = list(config.category_fields)
    if not cats:
        raise ValueError("top_forecast_results needs category fields (entity split)")

    def entity_rank(b: pa.Table) -> pa.Table:
        if col == "interval_width":
            b = b.append_column(col, pc.subtract(b["forecast_upper"], b["forecast_lower"]))
            if horizon is not None:
                b = b.filter(pc.equal(b["horizon_index"], horizon))
        if build_in_query == "DISTANCE_TO_THRESHOLD_VALUE":
            b = b.filter(RELATIONS[relation](b["forecast_value"], threshold))
        return b.group_by(cats, use_threads=False).aggregate([(col, fn)]).rename_columns(
            [*cats, build_in_query])

    order = [(build_in_query, "descending" if fn == "max" else "ascending"),
             *((c, "ascending") for c in cats)]
    return top_k_by_key(forecast_ds, cats, entity_rank, order, k,
                        lambda: forecast_ds.schema().base_schema.empty_table()).to_pandas()


def forecast(
    events,
    config: DetectorConfig,
    horizon: int = 24,
    period: int = 0,
    ts_col: str = "ts",
    confidence: float = 0.9,
    checkpoint_dir: str | None = None,
    backend: str = "holt_winters",
):
    """events (a Dataset, or ``stages.exchange.ParquetFiles``) → forecast
    rows (one per entity × horizon step): the Dataset of
    :func:`forecast_parts`' tables.

    Not lazy: the call runs the split tasks and submits the forecaster
    tasks (which save checkpoints); the Dataset reads their tables.

    With ``checkpoint_dir``, forecaster streams continue across runs
    (the forecast job tick); without it each run is a self-contained
    cold start (the run-once semantics).

    ``backend``: ``holt_winters`` (default — cheap per point) or ``rcf``
    (the reference's caster shape: forecasts are the forest's iterated
    conditional expectation; costs ``horizon`` tree walks per recorded
    forecast, throttled by the forecaster's record stride)."""
    import ray.data as rd

    return rd.from_arrow_refs(forecast_parts(events, config, horizon, period, ts_col, confidence,
                                             checkpoint_dir, backend))


def forecast_parts(events, config: DetectorConfig, horizon: int = 24, period: int = 0,
                   ts_col: str = "ts", confidence: float = 0.9, checkpoint_dir: str | None = None,
                   backend: str = "holt_winters", then=None) -> list:
    """:func:`forecast`'s exchange: the reducers' refs, each part's
    forecast rows, or ``then(rows)`` run on them inside the reducer (a
    forecast tick's write, ``stages.sink.write_part``)."""
    feats = config.feature_names()
    if len(feats) != 1:
        raise ValueError("forecast() expects exactly one feature")
    keys = list(config.category_fields)
    if not keys:
        raise ValueError("forecast() needs category fields (one model per entity)")
    windows, empty = entity_windows(events, config, ts_col)
    stage = ForecastGroups(
        value_col=feats[0], interval_ms=config.interval_s * 1000,
        horizon=horizon, period=period, entity_cols=tuple(keys), config=config,
        output_after=config.model_output_after(),
        confidence=confidence, checkpoint_dir=checkpoint_dir,
        config_id=config.config_id, backend=backend, seed=config.seed,
    )
    if then is not None:
        forecast_rows = stage

        def stage(group: pa.Table):
            return then(forecast_rows(group))

    return exchange_by_key(events, windows, keys, stage, empty)
