"""Windowed feature aggregation — the query surface of SURVEY.md §2.A6–A8/A11.

Replaces the composite/date_histogram/date_range aggregations the
reference pushes down to OpenSearch (``ParseUtils.java:338-395,767-824``,
``CompositeRetriever.java:154-183``) with one plan for every windowed
aggregation:

    events → split tasks: window assignment + mergeable partials per
             read range or block, split by entity
           → exchange_by_key reducers: partials merged per part

Windows are assigned one of three ways in front of the same partials:
fixed tumbling ``interval``, UTC calendar buckets (``calendar_interval``)
or explicit ``[from, to)`` ranges (date_range). Every feature agg is a
mergeable partial, as the reference reduces its aggregations
(``timeseries/model/Mergeable.java``): sums, counts, min/max, exact
distinct sets (``cardinality``), exact value lists (``percentile``), HLL
registers and t-digests (``functions/sketches.py``).

Window identity matches the reference exactly: fixed tumbling windows of
``interval``, ``[window_start, window_end)`` with the end exclusive
(``ParseUtils.java:314-319``), ``window_delay`` shifting the queried
range, NOT the bucketing (``ResultProcessor.java:424-435``). The
afterKey/page-size pagination protocol disappears — the exchange's
byte-sized read ranges are the pagination.

Feature value semantics follow ``AbstractRetriever.java:140-158``:
missing aggregate → NaN, ±Inf → NaN.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DetectorConfig
from .exchange import exchange_by_key

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


def ts_range_ms(ds, ts_col: str) -> tuple[int | None, int | None]:
    """Earliest and latest ``ts_col`` value (epoch ms) of ``ds``, nulls
    skipped: one (min, max) partial per block, reduced in the driver.
    Ray Data's ``Dataset.aggregate`` / ``max`` run as ``groupby(None)``,
    an all-to-all shuffle for one pair of numbers. ``(None, None)``
    without rows."""

    def partial(b: pa.Table) -> pa.Table:
        ms = _ts_ms_numpy(b.select([ts_col]).drop_null(), ts_col) if b.num_rows else np.empty(0, np.int64)
        lo, hi = ([ms.min()], [ms.max()]) if ms.size else ([], [])
        return pa.table({"lo": pa.array(lo, pa.int64()), "hi": pa.array(hi, pa.int64())})

    rows = ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True).take_all()
    if not rows:
        return None, None
    return int(min(r["lo"] for r in rows)), int(max(r["hi"] for r in rows))


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


def add_range_window_columns(batch: pa.Table, ts_col: str, ranges_ms: list[tuple[int, int]]) -> pa.Table:
    """Explicit ``[from, to)`` windows (date_range, A7) sibling of
    :meth:`add_window_columns`: a row takes the last range starting at or
    before it (ranges sorted by start); rows in no range are dropped."""
    lows = np.asarray([r[0] for r in ranges_ms], dtype=np.int64)
    highs = np.asarray([r[1] for r in ranges_ms], dtype=np.int64)
    ts_np = _ts_ms_numpy(batch, ts_col)
    idx = np.searchsorted(lows, ts_np, side="right") - 1
    ok = (idx >= 0) & (ts_np < highs[np.clip(idx, 0, len(highs) - 1)])
    idx = idx[ok]
    batch = batch.filter(pa.array(ok))
    batch = batch.append_column("window_start_ms", pa.array(lows[idx]))
    return batch.append_column("window_end_ms", pa.array(highs[idx]))


def window_aggregate(
    ds,
    config: DetectorConfig,
    ts_col: str = "ts",
    time_range_ms: tuple[int, int] | None = None,
    calendar_interval: str | None = None,
):
    """events Dataset → one row per (entities…, window) with float64
    feature columns (B1 NaN semantics). ``calendar_interval``
    (week/month/quarter/year) switches the tumbling windows from
    fixed-width to UTC-calendar buckets (OpenSearch date_histogram's
    calendar_interval). Not lazy: the call runs the map side (window
    partials) and the exchange's merge tasks, by entity (by window
    without category fields); the Dataset reads their tables."""
    import ray.data as rd

    windows = None if calendar_interval is None else functools.partial(
        add_calendar_window_columns, ts_col=ts_col, calendar_interval=calendar_interval)
    cats = list(config.category_fields)
    cols = [*cats, "window_start_ms", "window_end_ms", *config.feature_names()]
    fn, empty = entity_windows(ds, config, ts_col, time_range_ms, windows)
    return rd.from_arrow_refs(exchange_by_key(
        ds, fn, cats or ["window_start_ms"],
        lambda t: finalize_partials_multi(t, config, cats).select(cols), empty))


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


def _partial_aggs(config: DetectorConfig) -> tuple[dict[tuple[str, str], list[str]], list]:
    """The one agg dispatch: ``{(column, arrow hash agg): [partial column
    names]}`` (one arrow aggregation per distinct pair; several features
    may share one, e.g. sum + avg of the same column) and the sketch
    features. An unknown ``FeatureSpec.agg`` raises here."""
    wanted: dict[tuple[str, str], list[str]] = {}
    sketch_feats = []
    for f in config.features:
        if f.agg in SKETCH_AGGS:
            sketch_feats.append(f)  # fixed-size mergeable sketches
        elif f.agg == "min":
            wanted.setdefault((f.column, "min"), []).append(f"{f.name}__min")
        elif f.agg == "max":
            wanted.setdefault((f.column, "max"), []).append(f"{f.name}__max")
        elif f.agg == "sum":
            wanted.setdefault((f.column, "sum"), []).append(f"{f.name}__sum")
        elif f.agg == "value_count":
            wanted.setdefault((f.column, "count"), []).append(f"{f.name}__cnt")
        elif f.agg == "avg":
            wanted.setdefault((f.column, "sum"), []).append(f"{f.name}__sum")
            wanted.setdefault((f.column, "count"), []).append(f"{f.name}__cnt")
        elif f.agg == "cardinality":
            # exact (profile caps it at 10k in the reference —
            # ProfileRunner.java:271; we keep it exact)
            wanted.setdefault((f.column, "distinct"), []).append(f"{f.name}__distinct")
        elif f.agg == "percentile":
            wanted.setdefault((f.column, "list"), []).append(f"{f.name}__list")
        else:
            raise ValueError(f"unsupported aggregation {f.agg!r} for feature {f.name!r}")
    return wanted, sketch_feats


def partial_window_aggregate(
    ds,
    config: DetectorConfig,
    ts_col: str = "ts",
    time_range_ms: tuple[int, int] | None = None,
    windows=None,
):
    """:func:`window_partials` as a Ray Data map over ``ds``'s blocks:
    one row per (entities…, window) PER BLOCK with mergeable partial
    columns (``{name}__sum/__cnt/__min/…``). The exchange's own map side
    (:func:`entity_windows`) runs the same function in its split tasks.

    Ray's ``groupby().aggregate`` is a sort shuffle of the RAW event rows
    (every event moves), while this reduces each block to its distinct
    (entity, window) partials first — the exchange then moves only
    window-level rows (events-per-window× less volume) and the reducer
    merges partials with :func:`finalize_partials_multi`. ``windows``: see
    :func:`window_partials`."""
    _partial_aggs(config)  # an unknown agg raises when the plan is built
    return ds.map_batches(window_partials, batch_format="pyarrow", zero_copy_batch=True,
                          fn_kwargs=dict(config=config, ts_col=ts_col, time_range_ms=time_range_ms,
                                         windows=windows))


def _valid_items(lst: pa.Array) -> pa.Array:
    """A list column without its null (and NaN) items: Arrow's ``list``
    hash agg keeps them, Ray's ``Quantile`` ignores both."""
    flat = pc.list_flatten(lst)
    ok = np.asarray(pc.is_valid(flat), dtype=bool)
    if pa.types.is_floating(flat.type):
        ok &= ~np.isnan(flat.to_numpy(zero_copy_only=False))
    parents = pc.list_parent_indices(lst).to_numpy(zero_copy_only=False)[ok]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(parents, minlength=len(lst)))])
    return pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), flat.filter(pa.array(ok)))


def window_partials(batch: pa.Table, config: DetectorConfig, ts_col: str = "ts",
                    time_range_ms: tuple[int, int] | None = None, windows=None) -> pa.Table:
    """One batch's window partials (see :func:`partial_window_aggregate`).
    ``windows(batch)`` appends ``window_start_ms``/``window_end_ms``
    (:func:`add_calendar_window_columns`, :func:`add_range_window_columns`);
    by default the fixed ``config.interval_s`` tumbling windows."""
    needed = {ts_col, *config.category_fields, *(f.column for f in config.features)}
    keys = list(config.category_fields) + ["window_start_ms", "window_end_ms"]
    if windows is None:
        b = add_window_columns(batch, ts_col, config.interval_s * 1000)
    else:
        b = windows(batch)
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
    wanted, sketch_feats = _partial_aggs(config)
    aggs_list = sorted(wanted)  # Arrow's distinct drops nulls (CountOptions only_valid)
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
        if fn == "list":
            col = _valid_items(col.combine_chunks())
        elif fn != "distinct":
            col = pc.cast(col, pa.int64() if fn == "count" else pa.float64())
        for t in targets:
            cols[t] = col
    if sketch_feats:
        cols.update(_sketch_partial_columns(b, keys, sketch_feats, g))
    return pa.table(cols)


def entity_windows(source, config: DetectorConfig, ts_col: str = "ts",
                   time_range_ms: tuple[int, int] | None = None, windows=None):
    """The map side every windowed aggregation hands its exchange, run
    inside each split task of ``stages.exchange.exchange_by_key``: a
    function table → window partials that applies ``config``'s filter
    query, then :func:`window_partials` (``windows``, ``time_range_ms``).
    Returns ``(fn, empty)``: ``empty()`` is the zero-row input of a
    Dataset ``source`` without rows, typed from its schema (a file
    source's zero-row file is typed already)."""
    from ..functions.rowfilter import compile_row_predicate

    _partial_aggs(config)  # an unknown agg raises here, in the driver
    keep = compile_row_predicate(config.filter_query)

    def fn(t: pa.Table) -> pa.Table:
        if keep is not None and t.num_rows:  # empty() may lack the predicate's columns
            t = t.filter(keep)
        return window_partials(t, config, ts_col, time_range_ms, windows)

    def empty() -> pa.Table:
        in_schema = source.schema()
        # an input whose own map or filter stages saw no rows has no schema
        # either: type its columns by their role (callers read the names)
        in_schema = in_schema.base_schema if in_schema is not None else pa.schema(list({
            ts_col: pa.int64(), **{c: pa.string() for c in config.category_fields},
            **{f.column: pa.float64() for f in config.features}}.items()))
        return in_schema.empty_table()

    return fn, empty


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


def _exact_quantile(series, q: float) -> float:
    """One window's value lists merged → Ray ``Quantile``'s own formula
    (sort, ``k = (n-1)·q``, interpolate, Python ``round(x, 5)`` when
    ``k`` is fractional), so values stay bit-identical to it."""
    v = sorted(np.concatenate(list(series)).tolist())
    if not v:
        return float("nan")
    k = (len(v) - 1) * q
    f, c = math.floor(k), math.ceil(k)
    if f == c:
        return v[int(k)]
    return round(v[f] * (c - k) + v[c] * (k - f), 5)


def finalize_partials_multi(table: pa.Table, config: DetectorConfig, group_cols: list[str]) -> pa.Table:
    """Merge the partial rows of MANY entities (one part of the
    per-entity exchange) into final feature values: one row per
    (group_cols…, window), columns named like ``window_aggregate``'s
    output, B1 NaN semantics applied (a NaN feature is null). ONE pandas
    groupby for the whole part; ~10× less pandas overhead than a
    per-model finalize at tens of models per part. The output is typed
    from ``table``'s schema, zero rows included: the group columns keep
    their Arrow types, windows are int64, features float64."""
    import pandas as pd

    df = table.to_pandas()
    keys = [*group_cols, "window_start_ms", "window_end_ms"]
    # stable sort by the group columns, then every other column, so the
    # float merge order of one (group, window) is deterministic whatever
    # order the exchange delivered its partial rows in (the exact distinct
    # and value-list partials merge order-free and don't sort)
    noncarry = [c for c in df.columns
                if c not in group_cols and not c.endswith(("__distinct", "__list"))]
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
        elif f.agg == "cardinality":
            out[f.name] = gb[f"{f.name}__distinct"].agg(lambda s: len(set().union(*s)))
        elif f.agg == "percentile":
            out[f.name] = gb[f"{f.name}__list"].agg(
                lambda s, q=f.percentile: _exact_quantile(s, q))
        elif f.agg == "avg":
            s = gb[f"{f.name}__sum"].sum(min_count=1)
            c = gb[f"{f.name}__cnt"].sum()
            out[f.name] = s / c.where(c > 0)
    # no features: the distinct (group, window) keys alone
    res = (pd.DataFrame(out) if out else pd.DataFrame(index=gb.size().index)).reset_index()
    for f in config.feature_names():
        v = res[f].to_numpy(dtype=np.float64, copy=True)
        v[~np.isfinite(v)] = np.nan
        res[f] = v
    # window keys, features, then the carried group columns
    schema = pa.schema([("window_start_ms", pa.int64()), ("window_end_ms", pa.int64()),
                        *((f, pa.float64()) for f in config.feature_names()),
                        *(table.schema.field(c) for c in group_cols)])
    return pa.Table.from_pandas(res, schema=schema, preserve_index=False).replace_schema_metadata()


def per_entity(table: pa.Table, keys: list[str], fn, config: DetectorConfig,
               carry: tuple[str, ...] = ()) -> pa.Table:
    """The in-group loop of every Layer B stage: one reducer of the
    per-entity exchange (``stages.exchange.exchange_by_key``) holds
    many entities. Merges the map-side window partials of the whole
    part at once (:func:`finalize_partials_multi` with ``config``,
    keeping the ``carry`` columns next to ``keys``); sorts once, stably,
    on ``keys`` and window start (an entity's windows are distinct, so
    this is its window order); calls ``fn`` on each entity's slice in
    key order, or once on the zero-row table when no entity is left.
    A row with a null key belongs to no entity. ``fn`` returns an Arrow
    table of one schema whatever its row count."""
    table = finalize_partials_multi(table, config, [*carry, *keys])
    for k in keys:
        table = table.filter(pc.is_valid(table[k]))
    order = pc.sort_indices(table, [(k, "ascending") for k in [*keys, "window_start_ms"]])
    table = table.take(order)
    n = table.num_rows
    change = np.zeros(max(n - 1, 0), dtype=bool)
    for k in keys:
        col = table[k]
        change |= pc.not_equal(col[1:], col[:-1]).to_numpy(zero_copy_only=False)
    bounds = [0, *(np.flatnonzero(change) + 1), n]
    return pa.concat_tables([fn(table.slice(lo, hi - lo)) for lo, hi in zip(bounds, bounds[1:])])


def date_range_aggregate(ds, config: DetectorConfig, ranges_ms: list[tuple[int, int]], ts_col: str = "ts"):
    """A7: N explicit [from, to) buckets + per-feature sub-aggs
    (``ParseUtils.java:338-395``; used for cold-start samples): one row
    per (entities…, ``range_idx``) with the features. Empty ranges are
    materialized with NaN features by the caller's left join — here only
    non-empty buckets return rows (same as the engine). Not lazy, like
    :func:`window_aggregate`."""
    import ray.data as rd

    ranges_ms = [(int(lo), int(hi)) for lo, hi in ranges_ms]
    range_idx = {r: i for i, r in enumerate(ranges_ms)}  # a repeated range: its last index
    cats = list(config.category_fields)

    def finalize(table: pa.Table) -> pa.Table:
        out = finalize_partials_multi(table, config, cats)
        idx = [range_idx[r] for r in zip(out["window_start_ms"].to_pylist(),
                                         out["window_end_ms"].to_pylist())]
        out = out.append_column("range_idx", pa.array(idx, pa.int64()))
        return out.select([*cats, "range_idx", *config.feature_names()])

    windows = functools.partial(add_range_window_columns, ts_col=ts_col, ranges_ms=ranges_ms)
    fn, empty = entity_windows(ds, config, ts_col, windows=windows)
    return rd.from_arrow_refs(exchange_by_key(ds, fn, cats or ["window_start_ms"], finalize, empty))
