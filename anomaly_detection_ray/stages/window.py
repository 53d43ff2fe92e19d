"""Windowed feature aggregation — the query surface of SURVEY.md §2.A6–A8/A11.

Replaces the composite/date_histogram/date_range aggregations the
reference pushes down to OpenSearch (``ParseUtils.java:338-395,767-824``,
``CompositeRetriever.java:154-183``) with one Ray Data ``groupby``:

    events → map_batches(window projection, vectorized arithmetic)
           → groupby(category fields + window_end).aggregate(features)

Window identity matches the reference exactly: fixed tumbling windows of
``interval``, ``[window_start, window_end)`` with the end exclusive
(``ParseUtils.java:314-319``), ``window_delay`` shifting the queried
range, NOT the bucketing (``ResultProcessor.java:424-435``). The
afterKey/page-size pagination protocol disappears — Ray's streaming
executor is the pagination.

Feature value semantics follow ``AbstractRetriever.java:140-158``:
missing aggregate → NaN, ±Inf → NaN.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DetectorConfig, FeatureSpec
from .exchange import exchange_by_key

_BUILTIN_AGGS = {"min", "max", "sum", "avg", "value_count", "cardinality", "percentile",
                 "cardinality_hll", "percentile_tdigest"}

# sketch-backed aggs: mergeable fixed-size partials (functions/sketches.py)
# matching the reference's scalability class — t-digest percentiles
# (AbstractRetriever.java:80-89 unwraps InternalTDigestPercentiles) and
# HLL cardinality (ProfileRunner.java:271,301). ``cardinality`` /
# ``percentile`` stay EXACT (small-data oracle twins).
SKETCH_AGGS = {"cardinality_hll", "percentile_tdigest"}


def _ts_ms_numpy(batch: pa.Table, ts_col: str) -> np.ndarray:
    """Timestamp column → int64 epoch-ms numpy array (normalizing the
    parquet type's native unit)."""
    ts = batch[ts_col]
    if pa.types.is_timestamp(ts.type):
        # timestamp → int64 yields the type's native unit; normalize to ms
        unit = ts.type.unit
        ts64 = pc.cast(ts, pa.int64())
        if unit == "s":
            ts_ms = pc.multiply(ts64, pa.scalar(1000, pa.int64()))
        elif unit == "ms":
            ts_ms = ts64
        elif unit == "us":
            ts_ms = pc.divide(ts64, 1000)
        elif unit == "ns":
            ts_ms = pc.divide(ts64, 1_000_000)
        else:
            raise ValueError(f"unsupported timestamp unit {unit!r} on column {ts_col!r}")
    else:
        ts_ms = pc.cast(ts, pa.int64())
    return ts_ms.to_numpy() if hasattr(ts_ms, "to_numpy") else ts_ms.combine_chunks().to_numpy()


def add_window_columns(batch: pa.Table, ts_col: str, interval_ms: int) -> pa.Table:
    """Vectorized tumbling-window assignment (B2 time alignment:
    ``dataStart -= dataStart % interval``, ``ADBatchTaskRunner.java:989-991``)."""
    ts_np = _ts_ms_numpy(batch, ts_col)
    start_np = ts_np - ts_np % np.int64(interval_ms)
    batch = batch.append_column("window_start_ms", pa.array(start_np))
    return batch.append_column("window_end_ms", pa.array(start_np + np.int64(interval_ms)))


# OpenSearch date_histogram calendar_interval units this engine floors
# (UTC calendar; fixed intervals go through add_window_columns instead).
CALENDAR_UNITS = {"1w": "W", "week": "W", "1M": "M", "month": "M",
                  "1q": "Q", "quarter": "Q", "1y": "Y", "year": "Y"}

_DAY_MS = 86_400_000


def calendar_floor_ms(ts_np: np.ndarray, unit: str) -> tuple[np.ndarray, np.ndarray]:
    """(window_start_ms, window_end_ms) of the UTC calendar bucket each
    epoch-ms timestamp falls in — vectorized numpy datetime64 calendar
    arithmetic (months/years are variable-width, so modulo arithmetic
    can't express them; OpenSearch's calendar_interval semantics).
    Weeks start Monday (ISO / OpenSearch / DuckDB date_trunc parity)."""
    u = CALENDAR_UNITS.get(unit)
    if u is None:
        raise ValueError(
            f"unsupported calendar_interval {unit!r} (one of {sorted(CALENDAR_UNITS)})"
        )
    if u == "W":
        day = ts_np // _DAY_MS
        dow = (day + 3) % 7  # 1970-01-01 was a Thursday; Monday ≡ 0
        start_day = day - dow
        return start_day * _DAY_MS, (start_day + 7) * _DAY_MS
    months = ts_np.astype("datetime64[ms]").astype("datetime64[M]").astype(np.int64)
    if u == "Q":
        months = (months // 3) * 3
        nxt = months + 3
    elif u == "Y":
        months = (months // 12) * 12
        nxt = months + 12
    else:  # M
        nxt = months + 1

    def to_ms(m):
        return m.astype("datetime64[M]").astype("datetime64[ms]").astype(np.int64)

    return to_ms(months), to_ms(nxt)


def add_calendar_window_columns(batch: pa.Table, ts_col: str, calendar_interval: str) -> pa.Table:
    """Calendar-interval sibling of :meth:`add_window_columns`
    (date_histogram with ``calendar_interval`` — week/month/quarter/year
    tumbling windows aligned to the UTC calendar)."""
    ts_np = _ts_ms_numpy(batch, ts_col)
    start, end = calendar_floor_ms(ts_np, calendar_interval)
    batch = batch.append_column("window_start_ms", pa.array(start))
    return batch.append_column("window_end_ms", pa.array(end))


def _agg_for(spec: FeatureSpec):
    from ray.data.aggregate import Count, Max, Mean, Min, Quantile, Sum, Unique

    if spec.agg == "min":
        return Min(spec.column, alias_name=spec.name)
    if spec.agg == "max":
        return Max(spec.column, alias_name=spec.name)
    if spec.agg == "sum":
        return Sum(spec.column, alias_name=spec.name)
    if spec.agg == "avg":
        return Mean(spec.column, alias_name=spec.name)
    if spec.agg == "value_count":
        return Count(spec.column, ignore_nulls=True, alias_name=spec.name)
    if spec.agg == "cardinality":
        # exact distinct via Unique + post-count (profile caps it at 10k in
        # the reference — ProfileRunner.java:271; we keep it exact)
        return Unique(spec.column, alias_name=f"__uniq_{spec.name}")
    if spec.agg == "percentile":
        return Quantile(spec.column, q=spec.percentile, alias_name=spec.name)
    raise ValueError(f"unsupported aggregation {spec.agg!r}")


def window_aggregate(
    ds,
    config: DetectorConfig,
    ts_col: str = "ts",
    time_range_ms: tuple[int, int] | None = None,
    calendar_interval: str | None = None,
):
    """events Dataset → one row per (entities…, window) with feature
    columns. ``calendar_interval`` (week/month/quarter/year) switches
    the tumbling windows from fixed-width to UTC-calendar buckets
    (OpenSearch date_histogram's calendar_interval). With a sketch
    aggregation the call itself runs the map side and the exchange's
    merge tasks (not lazy); otherwise the result is a lazy Dataset."""
    if calendar_interval is not None and any(f.agg in SKETCH_AGGS for f in config.features):
        raise ValueError("calendar_interval is not supported with sketch aggregations")
    if any(f.agg in SKETCH_AGGS for f in config.features):
        # sketch aggs have no Ray builtin: run the mergeable-partial plan
        # (combiner → per-entity exchange of window-level sketch rows → merge),
        # the same single-exchange shape the fused detect plan uses
        import ray.data as rd

        cats = list(config.category_fields)
        part, _, empty = entity_windows(ds, config, ts_col, time_range_ms)
        return rd.from_arrow_refs(exchange_by_key(
            part, cats or ["window_start_ms"], lambda df: finalize_partials_multi(df, config, cats),
            empty))
    interval_ms = config.interval_s * 1000
    needed = {ts_col, *config.category_fields, *(f.column for f in config.features)}
    ds = ds.select_columns([c for c in ds.schema().names if c in needed])
    if calendar_interval is not None:
        win_fn = lambda b: add_calendar_window_columns(b, ts_col, calendar_interval)  # noqa: E731
    else:
        win_fn = lambda b: add_window_columns(b, ts_col, interval_ms)  # noqa: E731
    ds = ds.map_batches(
        win_fn,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    if time_range_ms is not None:
        lo, hi = time_range_ms
        ds = ds.map_batches(
            lambda b: b.filter(
                pc.and_(pc.greater_equal(b["window_start_ms"], lo), pc.less(b["window_end_ms"], hi + 1))
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    keys = list(config.category_fields) + ["window_start_ms", "window_end_ms"]
    aggs = [_agg_for(f) for f in config.features]
    out = ds.groupby(keys).aggregate(*aggs)
    card_specs = [f for f in config.features if f.agg == "cardinality"]
    if card_specs:
        def finish_cardinality(batch: pa.Table) -> pa.Table:
            for f in card_specs:
                lens = pc.cast(pc.list_value_length(batch[f"__uniq_{f.name}"]), pa.int64())
                batch = batch.drop_columns([f"__uniq_{f.name}"]).append_column(f.name, lens)
            return batch

        out = out.map_batches(finish_cardinality, batch_format="pyarrow", zero_copy_batch=True)
    return out


def normalize_features(batch: pa.Table, feature_names: list[str]) -> pa.Table:
    """B1 semantics: ±Inf → NaN, null → NaN, cast to float64
    (``AbstractRetriever.java:140-158``)."""
    for name in feature_names:
        col = pc.cast(batch[name], pa.float64())
        arr = col.to_numpy(zero_copy_only=False).copy()
        arr[~np.isfinite(arr)] = np.nan
        batch = batch.set_column(batch.column_names.index(name), name, pa.array(arr))
    return batch


MERGEABLE_AGGS = {"min", "max", "sum", "avg", "value_count"} | SKETCH_AGGS


def mergeable(config: DetectorConfig) -> bool:
    return all(f.agg in MERGEABLE_AGGS for f in config.features)


def _group_codes(b: pa.Table, keys: list[str]) -> tuple[np.ndarray, int]:
    """Exact per-row group codes over the key columns: Arrow dictionary
    encode per column + mixed-radix combine with compaction (no pandas
    round-trip, so key dtypes can't be coerced; nulls get their own code).
    Returns (codes aligned with rows, n_groups)."""
    if b.num_rows == 0:
        return np.empty(0, dtype=np.int64), 0
    codes = None
    for k in keys:
        col = b[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        d = col.dictionary_encode()
        idx = pc.fill_null(d.indices, len(d.dictionary)).to_numpy(zero_copy_only=False).astype(np.int64)
        if codes is None:
            codes = idx
        else:
            codes = np.unique(codes * np.int64(len(d.dictionary) + 1) + idx, return_inverse=True)[1]
    codes = np.unique(codes, return_inverse=True)[1].astype(np.int64)
    return codes, int(codes.max()) + 1


def _sketch_partial_columns(b: pa.Table, keys: list[str], sketch_feats, g: pa.Table) -> dict:
    """Per-group sketch partial columns for one batch, aligned with the
    Arrow group_by output ``g`` (which carries a ``__rowidx_min``
    first-occurrence column for the alignment)."""
    from ..functions import sketches as sk

    out: dict[str, pa.Array] = {}
    codes, n_groups = _group_codes(b, keys)
    first = g["__rowidx_min"].to_numpy(zero_copy_only=False).astype(np.int64) if g.num_rows else np.empty(0, np.int64)
    out_codes = codes[first] if first.size else np.empty(0, np.int64)
    for f in sketch_feats:
        col = b[f.column]
        colc = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        mask = np.asarray(pc.is_valid(colc)) if b.num_rows else np.empty(0, bool)
        npvals = colc.to_numpy(zero_copy_only=False) if b.num_rows else np.empty(0)
        vcodes, vvals = codes[mask], npvals[mask]
        if f.agg == "cardinality_hll":
            regs = sk.hll_build_grouped(vcodes, n_groups, sk.hash64_values(vvals))
            out[f"{f.name}__hll"] = pa.array([regs[c].tobytes() for c in out_codes], pa.binary())
        else:  # percentile_tdigest
            td = sk.tdigest_build_grouped(vcodes, n_groups, vvals.astype(np.float64))
            out[f"{f.name}__td"] = pa.array([td[c] for c in out_codes], pa.binary())
    return out


def partial_window_aggregate(
    ds,
    config: DetectorConfig,
    ts_col: str = "ts",
    time_range_ms: tuple[int, int] | None = None,
):
    """Map-side partial aggregation: one row per (entities…, window) PER
    BATCH with mergeable partial columns (``{name}__sum/__cnt/__min/…``).

    This is the combiner half of the single-shuffle detect/forecast plan:
    Ray's ``groupby().aggregate`` is a sort shuffle of the RAW event rows
    (every event moves), while this reduces each block to its distinct
    (entity, window) partials first — the shuffle then moves only
    window-level rows (events-per-window× less volume) and the scoring
    group merges partials with :func:`finalize_partials_multi`."""
    return ds.map_batches(window_partials, batch_format="pyarrow", zero_copy_batch=True,
                          fn_kwargs=dict(config=config, ts_col=ts_col, time_range_ms=time_range_ms))


def window_partials(batch: pa.Table, config: DetectorConfig, ts_col: str = "ts",
                    time_range_ms: tuple[int, int] | None = None) -> pa.Table:
    """One batch's window partials (see :func:`partial_window_aggregate`)."""
    interval_ms = config.interval_s * 1000
    needed = {ts_col, *config.category_fields, *(f.column for f in config.features)}
    keys = list(config.category_fields) + ["window_start_ms", "window_end_ms"]
    b = add_window_columns(batch, ts_col, interval_ms)
    if time_range_ms is not None:
        lo, hi = time_range_ms
        b = b.filter(
            pc.and_(pc.greater_equal(b["window_start_ms"], lo), pc.less(b["window_end_ms"], hi + 1))
        )
    b = b.select([c for c in b.column_names if c in needed or c in keys])
    # (zero-row batches flow through the same aggregate below — Arrow
    # preserves key dtypes on empty group_by, so an empty block emits
    # the exact schema of a populated one, incl. non-string categories)
    # Arrow-native group_by: preserves key dtypes exactly and keeps
    # null keys. (A pandas round-trip coerced int64-with-nulls key
    # columns to float64 PER BATCH, so the same entity stringified as
    # '1' in null-free blocks and '1.0' elsewhere — splitting one
    # entity's stream across two model_ids.)
    # one arrow aggregation per distinct (column, fn); several features
    # may share one (e.g. sum + avg of the same column)
    wanted: dict[tuple[str, str], list[str]] = {}
    sketch_feats = [f for f in config.features if f.agg in SKETCH_AGGS]
    for f in config.features:
        if f.agg in SKETCH_AGGS:
            continue  # fixed-size mergeable sketches, built below
        if f.agg == "min":
            wanted.setdefault((f.column, "min"), []).append(f"{f.name}__min")
        elif f.agg == "max":
            wanted.setdefault((f.column, "max"), []).append(f"{f.name}__max")
        elif f.agg == "sum":
            wanted.setdefault((f.column, "sum"), []).append(f"{f.name}__sum")
        elif f.agg == "value_count":
            wanted.setdefault((f.column, "count"), []).append(f"{f.name}__cnt")
        else:  # avg
            wanted.setdefault((f.column, "sum"), []).append(f"{f.name}__sum")
            wanted.setdefault((f.column, "count"), []).append(f"{f.name}__cnt")
    aggs_list = sorted(wanted)
    if sketch_feats:
        # first-occurrence row index per group → aligns the code-grouped
        # sketch rows with Arrow's group_by output order
        b = b.append_column("__rowidx", pa.array(np.arange(b.num_rows, dtype=np.int64)))
        aggs_list = aggs_list + [("__rowidx", "min")]
    # use_threads=False: threaded accumulation order would make the
    # float partials 1-ulp nondeterministic run-to-run
    g = b.group_by(keys, use_threads=False).aggregate(aggs_list)
    cols = {k: g[k] for k in keys}
    for (col_name, fn), targets in wanted.items():
        col = g[f"{col_name}_{fn}"]
        col = pc.cast(col, pa.int64() if fn == "count" else pa.float64())
        for t in targets:
            cols[t] = col
    if sketch_feats:
        cols.update(_sketch_partial_columns(b, keys, sketch_feats, g))
    return pa.table(cols)


def entity_windows(ds, config: DetectorConfig, ts_col: str = "ts",
                   time_range_ms: tuple[int, int] | None = None):
    """The map side every per-entity Layer B stage hands its exchange:
    window partials when every agg is mergeable (``fused``), else
    finished, normalized windows. Returns ``(Dataset, fused, empty)``:
    ``empty()`` is the map side's zero-row table, typed from
    ``ds.schema()`` because Ray Data turns a row-less input into
    column-less blocks."""
    # a sketch agg always takes the partial plan, as window_aggregate does
    fused = mergeable(config) or any(f.agg in SKETCH_AGGS for f in config.features)
    feats = config.feature_names()
    if fused:
        agg = partial_window_aggregate(ds, config, ts_col, time_range_ms)
    else:
        agg = window_aggregate(ds, config, ts_col, time_range_ms).map_batches(
            lambda b: normalize_features(b, feats), batch_format="pyarrow", zero_copy_batch=True)

    def empty() -> pa.Table:
        in_schema = ds.schema()
        # an input whose own map or filter stages saw no rows has no schema
        # either: type its columns by their role (callers read the names)
        in_schema = in_schema.base_schema if in_schema is not None else pa.schema(list({
            ts_col: pa.int64(), **{c: pa.string() for c in config.category_fields},
            **{f.column: pa.float64() for f in config.features}}.items()))
        return window_partials(in_schema.empty_table(), config, ts_col) if fused else pa.schema([
            *(in_schema.field(c) for c in config.category_fields),
            pa.field("window_start_ms", pa.int64()), pa.field("window_end_ms", pa.int64()),
            *(pa.field(f, pa.float64()) for f in feats)]).empty_table()

    return agg, fused, empty


def _hll_count(series) -> float:
    """Merge one window's HLL register blobs → estimated distinct count."""
    from ..functions import sketches as sk

    regs = [np.frombuffer(b, dtype=np.uint8) for b in series if b]
    if not regs:
        return float("nan")
    return float(round(sk.hll_estimate(sk.hll_merge(np.stack(regs)))))


def _tdigest_q(series, q: float) -> float:
    """Merge one window's t-digest blobs → quantile estimate."""
    from ..functions import sketches as sk

    return sk.tdigest_quantile(sk.tdigest_merge([b for b in series if b]), q)


def finalize_partials_multi(df, config: DetectorConfig, group_cols: list[str]):
    """Merge the partial rows of MANY entities (one part of the
    per-entity exchange) into final feature values: one row per
    (group_cols…, window), columns named like ``window_aggregate``'s
    output, B1 NaN semantics applied. ONE pandas groupby for the whole
    group; ~10× less pandas overhead than a per-model finalize at tens
    of models per part."""
    import pandas as pd

    keys = [*group_cols, "window_start_ms", "window_end_ms"]
    # stable sort by the group columns, then every other column, so the
    # float merge order of one (group, window) is deterministic whatever
    # order the exchange delivered its partial rows in
    noncarry = [c for c in df.columns if c not in group_cols]
    df = df.sort_values([*group_cols, *noncarry], kind="stable")
    gb = df.groupby(keys, sort=True, dropna=False)
    out = {}
    for f in config.features:
        if f.agg == "min":
            out[f.name] = gb[f"{f.name}__min"].min()
        elif f.agg == "max":
            out[f.name] = gb[f"{f.name}__max"].max()
        elif f.agg == "sum":
            out[f.name] = gb[f"{f.name}__sum"].sum(min_count=1)
        elif f.agg == "value_count":
            out[f.name] = gb[f"{f.name}__cnt"].sum()
        elif f.agg == "cardinality_hll":
            out[f.name] = gb[f"{f.name}__hll"].agg(_hll_count)
        elif f.agg == "percentile_tdigest":
            out[f.name] = gb[f"{f.name}__td"].agg(
                lambda s, q=f.percentile: _tdigest_q(s, q))
        else:  # avg
            s = gb[f"{f.name}__sum"].sum(min_count=1)
            c = gb[f"{f.name}__cnt"].sum()
            out[f.name] = s / c.where(c > 0)
    res = pd.DataFrame(out).reset_index()
    for f in config.feature_names():
        v = res[f].to_numpy(dtype=np.float64, copy=True)
        v[~np.isfinite(v)] = np.nan
        res[f] = v
    # window keys, features, then the carried group columns
    return res[["window_start_ms", "window_end_ms", *config.feature_names(), *group_cols]]


def per_entity(group, keys: list[str], fn, empty, fused_config: DetectorConfig | None = None,
               carry: tuple[str, ...] = ()):
    """The in-group loop of every Layer B stage: one reducer of the
    per-entity exchange (``stages.exchange.exchange_by_key``) holds
    many entities. With ``fused_config`` merges the map-side window
    partials of the whole group at once (keeping the ``carry`` columns
    next to ``keys``); sorts once, stably, on ``keys`` and window start
    (an entity's windows are distinct, so this is its window order);
    calls ``fn`` on each entity's slice in key order. ``empty(group)``
    gives the zero-row result when no entity is left."""
    import pandas as pd

    if fused_config is not None:
        group = finalize_partials_multi(group, fused_config, [*carry, *keys])
    group = group.sort_values([*keys, "window_start_ms"], kind="stable")
    parts = [fn(sub) for _, sub in group.groupby(keys, sort=True)]
    if not parts:
        return empty(group)
    return parts[0] if len(parts) == 1 else pd.concat(parts)


def arrow_if_empty(result):
    """A stage's zero-row pandas result → a zero-row Arrow table with
    typed columns (object columns → string); a result with rows, or an
    Arrow table, passes through. Ray sizes a zero-row pandas block's
    object column with a logged error and types it ``null`` in
    ``to_arrow_refs()``."""
    if isinstance(result, pa.Table) or len(result):
        return result
    schema = pa.Schema.from_pandas(result, preserve_index=False)
    return pa.schema([f.with_type(pa.string()) if pa.types.is_null(f.type) else f
                      for f in schema]).empty_table()


def date_range_aggregate(ds, config: DetectorConfig, ranges_ms: list[tuple[int, int]], ts_col: str = "ts"):
    """A7: N explicit [from, to) buckets + per-feature sub-aggs
    (``ParseUtils.java:338-395``; used for cold-start samples). Empty
    ranges are materialized with NaN features by the caller's left join
    — here only non-empty buckets return rows (same as the engine)."""
    import pyarrow.compute as pc

    lows = np.asarray([r[0] for r in ranges_ms], dtype=np.int64)
    highs = np.asarray([r[1] for r in ranges_ms], dtype=np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        b = add_window_columns(batch, ts_col, 1)  # ts_ms only; reuse cast logic
        ts_ms = b["window_start_ms"].to_numpy()
        idx = np.searchsorted(lows, ts_ms, side="right") - 1
        ok = (idx >= 0) & (ts_ms < highs[np.clip(idx, 0, len(highs) - 1)])
        tbl = batch.append_column("range_idx", pa.array(np.where(ok, idx, -1).astype(np.int64)))
        return tbl.filter(pc.greater_equal(tbl["range_idx"], 0))

    ds = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    keys = list(config.category_fields) + ["range_idx"]
    return ds.groupby(keys).aggregate(*[_agg_for(f) for f in config.features])
