"""User-facing detector API — the reference's REST surface (§2.G,
``ad/rest/*`` — 18 actions) as a thin Python facade, so a user of the
plugin can run the same operations here:

    api = DetectorAPI(config, events_path)
    api.validate()        # _validate: interval / shingle-density / window-delay checks
    api.suggest_interval()# _suggest
    api.preview()         # _preview: deterministic sampled run (randomSeed(0) analogue)
    api.run_once(out_dir) # _run: full detection, results written
    api.profile()         # _profile/_stats: entity counts, model states
    api.start_job(...)    # realtime tick: checkpointed continuation
    api.top_anomalies(k)  # _topAnomalies

Create/update/delete of detector configs are plain dataclass / JSON
operations (configs are not Datasets) and need no engine support.
"""

from __future__ import annotations

import dataclasses
import functools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..config import DetectorConfig
from ..stages.exchange import ParquetFiles, exchange_by_key, row_group_bytes, top_k_by_key
from ..stages.window import add_window_columns, per_entity

WINDOW_DELAY_RATIO = 1.2  # TimeSeriesSettings.java:301


def _per_entity(events, fn, config: DetectorConfig, ts_col: str = "ts") -> pd.DataFrame:
    """Run ``fn`` on detect()'s plan over ``events`` (a Dataset or
    ``ParquetFiles``): ``entity_windows(…, config)`` partials keyed by
    ``model_id`` (``detector._add_model_id``: the entity hash, or the
    config id without category fields) with the category fields
    carried, one per-entity exchange (``stages.exchange.exchange_by_key``),
    and ``per_entity`` calling ``fn`` on each model's merged windows, an
    Arrow slice in window order (on the zero-row slice when a part holds
    no model). Returns the collected (entity-bounded) result."""
    import ray

    from ..stages.window import entity_windows
    from .detector import _add_model_id

    windows, empty = entity_windows(events, config, ts_col)
    stage = functools.partial(per_entity, keys=["model_id"], fn=fn, config=config,
                              carry=config.category_fields)
    refs = exchange_by_key(events, lambda t: _add_model_id(windows(t), config), ["model_id"], stage,
                           empty)
    return pa.concat_tables(ray.get(refs)).to_pandas()


class DetectorAPI:
    def __init__(self, config: DetectorConfig, events_path: str, ts_col: str = "ts"):
        self.config = config
        self.events_path = events_path
        self.ts_col = ts_col

    def _files(self) -> list[str]:
        """The events' Parquet files, listed as Ray's ``read_parquet``
        lists them: the path list a tailing tick sets, one file, or every
        file under a directory whose path relative to it starts with
        neither ``.`` nor ``_``, sorted."""
        path = self.events_path
        if not isinstance(path, str):
            return list(path)
        if os.path.isfile(path):
            return [path]
        return sorted(os.path.join(root, n) for root, _, names in os.walk(path) for n in names
                      if not os.path.relpath(os.path.join(root, n), path).startswith((".", "_")))

    def _schema(self) -> pa.Schema:
        """The events' schema from the first file's parquet footer
        (before any filter)."""
        import pyarrow.parquet as pq

        files = self._files()
        return pq.read_schema(files[0]) if files else pa.schema([])

    def _columns(self, columns: list[str] | None) -> list[str]:
        """``columns`` plus whatever the filter_query references; by
        default the detect()/forecast() column set."""
        from ..functions.rowfilter import predicate_fields
        from .detector import needed_columns

        if columns is None:
            return needed_columns(self.config, self.ts_col)
        return sorted(set(columns) | predicate_fields(self.config.filter_query))

    def _source(self, columns: list[str] | None = None) -> ParquetFiles:
        """The events as the exchange's file source: each split task
        reads its row groups with pyarrow, pruned to :meth:`_columns`;
        the exchange's map side applies the filter_query."""
        return ParquetFiles(tuple(self._files()), tuple(self._columns(columns)))

    def _ds(self, pruned: bool = False, columns: list[str] | None = None):
        """Events Dataset, in as many blocks as Layer A's byte rule gives
        the files' footer bytes (``index.build._read_blocks``: a 6 KB
        file is one block). ``columns`` prunes the SCAN to exactly those
        plus whatever the filter_query references (Ray does not push
        ``select_columns`` into the parquet read — the explicit column
        list is what keeps a validate/suggest pass from decoding every
        feature column of a 100-TB table); ``pruned`` uses the
        detect()/forecast() column set."""
        import ray.data as rd

        from ..index.build import _read_blocks

        cols = self._columns(columns) if columns is not None or pruned else None
        ds = rd.read_parquet(self.events_path, columns=cols, override_num_blocks=_read_blocks(
            sum(map(sum, row_group_bytes(self._files())))))
        if self.config.filter_query:
            # Config.filterQuery wraps EVERY feature query in the
            # reference — suggest/validate/preview/profile must see the
            # same filtered stream as detect/forecast (window_aggregate
            # re-applies it in its map side: an idempotent no-op)
            from ..functions.rowfilter import apply_filter_query

            ds = apply_filter_query(ds, self.config.filter_query)
        return ds

    # ---- _suggest (A14) ----

    RECENT_TS_CAP = 65_536

    def _recent_distinct_ts_ms(self) -> np.ndarray:
        """Most recent ``RECENT_TS_CAP`` DISTINCT event timestamps (epoch
        ms, ascending) — the shared probe behind ``suggest_interval`` and
        ``validate()``'s recency anchor (one scan serves both; r5 fused
        the separate max-ts pass). Each batch dedupes locally, the
        exchange moves per-block distinct timestamps, not every event row,
        and each part sends its newest ``RECENT_TS_CAP`` to the driver
        (``top_k_by_key``; ``IntervalCalculation.java:31-56`` samples
        latest data the same way)."""
        def distinct(t: pa.Table) -> pa.Table:
            return pa.table({"window_start_ms": pc.unique(t["window_start_ms"])})

        ds = self._ds(columns=[self.ts_col]).map_batches(
            lambda b: distinct(add_window_columns(b, self.ts_col, 1)),
            batch_format="pyarrow", zero_copy_batch=True)
        recent = top_k_by_key(ds, ["window_start_ms"], distinct, [("window_start_ms", "descending")],
                              self.RECENT_TS_CAP,
                              lambda: pa.table({"window_start_ms": pa.array([], pa.int64())}))
        return np.sort(recent["window_start_ms"].to_numpy())

    @staticmethod
    def _interval_from_recent(recent: np.ndarray, default: int) -> int:
        """Median gap of the recent distinct timestamps, in seconds."""
        if recent.size < 2:
            # empty table (or a single timestamp): nothing to suggest
            return default
        return max(1, int(round(float(np.median(np.diff(recent))) / 1000.0)))

    def suggest_interval(self) -> int:
        """Median gap between distinct timestamps, in seconds — over the
        most RECENT ``RECENT_TS_CAP`` distinct timestamps (the reference's
        interval calculation also samples latest data,
        ``IntervalCalculation.java:31-56``): the per-part newest distinct
        timestamps of ``_recent_distinct_ts_ms``, merged in the driver."""
        return self._interval_from_recent(self._recent_distinct_ts_ms(),
                                          self.config.interval_s)

    def suggest_period(self, max_period: int = 96) -> int:
        """Seasonal-period suggestion for the forecast side (the
        reference's forecaster validation suggests horizon/interval;
        ``forecast/rest/handler``): per-entity autocorrelation of the
        windowed feature series (FFT-based, inside the exchange's
        reducers), then a length-weighted vote across entities. Returns 0
        when no lag's autocorrelation clears 0.3 — 'no clear seasonality'.

        The per-entity pass rides detect()'s plan (``_per_entity``):
        map-side window partials, ONE exchange, partial merge +
        autocorrelation inside the reducer."""
        feats = self.config.feature_names()
        if not feats:
            return 0
        f0 = feats[0]

        def vote(period: int, weight: int) -> pa.Table:
            return pa.table({"period": pa.array([period], pa.int64()),
                             "weight": pa.array([weight], pa.int64())})

        def entity_period(g: pa.Table) -> pa.Table:
            x = g[f0].to_numpy()  # in window order (per_entity); null → NaN
            x = x[np.isfinite(x)]
            n = x.size
            if n < 8:
                return vote(0, 0)
            x = x - x.mean()
            spec = np.abs(np.fft.rfft(x, n=2 * n)) ** 2
            acf = np.fft.irfft(spec)[:n]
            if acf[0] <= 0:
                return vote(0, n)
            acf = acf / acf[0]
            hi = min(max_period, n // 2)
            if hi < 2:
                return vote(0, n)
            lag = int(np.argmax(acf[2 : hi + 1])) + 2
            return vote(lag if acf[lag] >= 0.3 else 0, n)

        votes = _per_entity(self._source(), entity_period, self.config, self.ts_col)
        votes = votes[votes["weight"] > 0]
        if not len(votes):
            return 0
        tally = votes.groupby("period")["weight"].sum()
        return int(tally.idxmax())

    # ---- _validate ----

    def validate(self) -> dict:
        """Shingle-density (B4) + interval sanity + window-delay
        suggestion (WINDOW_DELAY_RATIO × observed ingest delay is the
        reference's rule; with batch files we report the suggested
        interval instead)."""
        issues: list[str] = []
        # ONE distinct-ts probe serves both the interval suggestion and
        # the recency anchor for the feature sample below (r4 ran a
        # separate max-ts scan; the max IS the last recent timestamp)
        recent = self._recent_distinct_ts_ms()
        suggested = self._interval_from_recent(recent, self.config.interval_s)
        if suggested > self.config.interval_s * 2:
            issues.append(
                f"interval {self.config.interval_s}s much finer than median data gap {suggested}s"
            )
        # feature validation against live data (the reference's _validate
        # runs each feature agg and checks it returns usable values —
        # ad/rest/handler/AbstractAnomalyDetectorActionHandler feature
        # checks + IntervalCalculation.java:31-56): source columns must
        # exist, and a recent-window sample of each aggregated feature
        # must be mostly non-NaN. Schema comes from parquet METADATA (the
        # filter_query only drops rows, never columns — probing the
        # filtered stream would execute its first block just to list
        # names).
        schema_names = set(self._schema().names)
        missing_cols = [f.column for f in self.config.features if f.column not in schema_names]
        if missing_cols:
            issues.append(f"feature source columns missing from input: {sorted(set(missing_cols))}")
        feature_nan_rate: dict[str, float] = {}
        if not missing_cols and self.config.features:
            from ..stages.window import window_aggregate

            interval_ms_v = self.config.interval_s * 1000
            if recent.size == 0:
                issues.append("no data in the input — cannot validate features")
            else:
                # window_end of the latest event, derived from the probe
                hi = (int(recent[-1]) // interval_ms_v + 1) * interval_ms_v
                lo = int(hi) - 64 * interval_ms_v  # recent sample only — never the full table
                sample = window_aggregate(self._ds(pruned=True), self.config, ts_col=self.ts_col,
                                          time_range_ms=(lo, int(hi))).to_pandas()
                for f in self.config.feature_names():
                    rate = float(np.isnan(sample[f]).mean()) if len(sample) else 1.0
                    feature_nan_rate[f] = round(rate, 4)
                    if rate > 0.9:
                        issues.append(f"feature {f!r} is >90% missing over the last 64 intervals")
        density = self.shingle_density()
        weak = [e for e, d in density.items() if d < 0.25]
        if weak:
            issues.append(f"sparse shingles (<25% full windows) for {len(weak)} entities")
        return {
            "ok": not issues,
            "issues": issues,
            "suggested_interval_s": suggested,
            "window_delay_s": int(self.config.interval_s * (WINDOW_DELAY_RATIO - 1.0)),
            "shingle_density": density,
            "feature_nan_rate": feature_nan_rate,
        }

    def shingle_density(self) -> dict[str, float]:
        """Fraction of fully-populated shingle windows per entity (B4) —
        computed per entity inside the exchange's reducers (one tiny row
        per entity reaches the caller; round-1 pulled every distinct
        (entity, window) pair into the calling process). The pass rides
        detect()'s plan (``_per_entity``) over the featureless window
        partials: each entity's distinct windows. An entity's key is the
        tuple of its category values as strings, ``"()"`` without
        category fields."""
        interval_ms = self.config.interval_s * 1000
        s = self.config.shingle_size
        cats = list(self.config.category_fields)

        def entity_density(g: pa.Table) -> pa.Table:
            a = g["window_start_ms"].to_numpy()  # distinct, in order (per_entity)
            lo = np.searchsorted(a, a - (s - 1) * interval_ms, side="left")
            density = ((np.arange(a.size) - lo + 1) == s).sum() / max(1, a.size)
            keys = [str(tuple(str(v) for v in row.values()))
                    for row in g.slice(0, 1).select(cats).to_pylist()]
            return pa.table({"entity": pa.array(keys, pa.string()),
                             "density": pa.array([density] * len(keys), pa.float64())})

        keys_only = dataclasses.replace(self.config, features=())
        dens = _per_entity(self._source(cats + [self.ts_col]), entity_density, keys_only,
                           self.ts_col)
        return dict(zip(dens["entity"], dens["density"]))

    # ---- _preview (deterministic, D7 stride sampling + B6 interpolation) ----

    def preview(self, max_entities: int = 5) -> pd.DataFrame:
        """Deterministic preview: top entities by count, stride-sampled
        features linearly re-interpolated, scored by a fresh fixed-seed
        model — the ``AnomalyDetectorRunner`` path (§3.3)."""
        from ..functions.imputation import linear_uniform_impute
        from ..state.model import TRCFModel
        from ..stages.window import window_aggregate

        feats = self.config.feature_names()
        cats = list(self.config.category_fields)
        agg_ds = window_aggregate(self._ds(pruned=True), self.config, ts_col=self.ts_col)
        if cats:
            # top-k entities FIRST, distributed (q_top_entities shape), then
            # filter before collecting — preview never materializes the full
            # (entity, window) aggregate on the driver (at the reference's
            # 1M-entity scale that would be ~10⁹ rows for a 5-entity preview)
            def window_count(part: pa.Table) -> pa.Table:
                return part.group_by(cats, use_threads=False).aggregate(
                    [([], "count_all")]).rename_columns([*cats, "__n"])

            ranked = top_k_by_key(agg_ds, cats, window_count,
                                  [("__n", "descending"), *((c, "ascending") for c in cats)],
                                  max_entities, lambda: agg_ds.schema().base_schema.empty_table())
            top = set(zip(*(ranked[c].to_pylist() for c in cats)))

            def _keep_top(df: pd.DataFrame) -> pd.DataFrame:
                if not len(df):
                    return df
                mask = np.fromiter(
                    (t in top for t in zip(*(df[c] for c in cats))), bool, len(df)
                )
                return df[mask]

            agg = agg_ds.map_batches(_keep_top, batch_format="pandas").to_pandas()
        else:
            agg = agg_ds.to_pandas()
        # Ray's to_pandas gives a frame without columns when no row comes
        groups = (agg.groupby(cats) if cats else [((), agg)]) if len(agg) else []
        out = []
        for ent, g in groups:
            g = g.sort_values("window_start_ms")
            sampled = g.iloc[:: max(1, len(g) // 300 * 4 and 4)]  # stride ≈ preview sampling
            vals = linear_uniform_impute(sampled[feats].to_numpy(), len(g))
            model = TRCFModel(self.config, f"preview_{ent}")
            # batch scorer (bit-identical to per-point process() — the
            # forest's chunked scoring is batching-independent, pytest-
            # proven); windows are sorted so nothing is dropped
            ends = g["window_end_ms"].to_numpy(dtype=np.int64)
            r = model.process_many(vals, ends)
            keep = r["keep"]
            df = pd.DataFrame({
                "window_end_ms": ends[keep],
                "anomaly_score": r["anomaly_score"][keep],
                "anomaly_grade": r["anomaly_grade"][keep],
            })
            for c, v in zip(cats, ent if isinstance(ent, tuple) else (ent,)):
                df[c] = v
            out.append(df)
        if not out:
            return pd.DataFrame(columns=["window_end_ms", "anomaly_score", "anomaly_grade", *cats])
        return pd.concat(out, ignore_index=True)

    # ---- _run / job tick ----

    def run_once(self, results_dir: str | None = None, checkpoint_dir: str | None = None,
                 write_mode: str = "replace", time_range_ms=None, task_store=None,
                 piece_intervals: int = 1000):
        """One batch run. With ``task_store`` (a
        :class:`..state.taskstore.TaskStore`), the run is tracked as an
        ADTask-style doc: CREATED → RUNNING → FINISHED(n_result_rows) /
        FAILED(error); a rerun of a FINISHED (config, range) task is a
        no-op returning the finished doc (the reference refuses to
        restart finished historical tasks).

        A TRACKED run over an explicit ``time_range_ms`` processes the
        range in pieces of ``piece_intervals`` detector intervals,
        updating ``task_progress`` / ``init_progress`` and the
        current-piece resume marker after each piece — the reference's
        per-piece ADTask updates (``ADBatchTaskRunner.java:1271-1301``,
        pieceSize = 1000 points). Models continue across pieces through
        checkpoints (piece-split ≡ single-run is the checkpointed-split
        invariant the state tests prove), so a user polling a long
        historical run sees windows-scored progress, not a blind wait.
        ``n_result_rows`` counts THIS run's written rows only."""
        from .detector import detect

        task = None
        if task_store is not None:
            task = task_store.create(self.config.config_id, "historical",
                                     time_range_ms=time_range_ms)
            if task["state"] == "FINISHED":
                return task
            task_store.transition(task["_id"], "RUNNING")
        try:
            if task is not None and time_range_ms is not None:
                return self._run_pieces(task, task_store, results_dir, checkpoint_dir,
                                        write_mode, tuple(time_range_ms), piece_intervals)
            if results_dir:
                n = self._detect_into(results_dir, write_mode, checkpoint_dir=checkpoint_dir,
                                      time_range_ms=time_range_ms)
                if task is not None:
                    task_store.transition(task["_id"], "FINISHED", n_result_rows=n)
                return results_dir
            res = detect(self._source(), self.config, ts_col=self.ts_col,
                         checkpoint_dir=checkpoint_dir, time_range_ms=time_range_ms)
            if task is not None:
                res = res.materialize()
                task_store.transition(task["_id"], "FINISHED", n_result_rows=res.count())
            return res
        except Exception as e:
            if task is not None:
                task_store.transition(task["_id"], "FAILED", error=repr(e))
            raise

    def _detect_into(self, results_dir: str, write_mode: str, **kw) -> int:
        """detect() over the events whose reducers write their own part's
        results into ``results_dir`` (``stages.sink.write_part``; a
        ``replace`` run writes into a staging directory whose partitions
        then swap into place). Returns the rows written."""
        from ..stages.sink import rows_written, write_dir, write_part
        from .detector import detect_parts

        with write_dir(results_dir, write_mode) as d:
            return rows_written(detect_parts(self._source(), self.config, ts_col=self.ts_col,
                                             then=functools.partial(write_part, out_dir=d), **kw))

    def _run_pieces(self, task, task_store, results_dir, checkpoint_dir,
                    write_mode, time_range_ms, piece_intervals: int):
        """Piece loop of a tracked historical run (see run_once)."""
        from .detector import detect

        import shutil

        interval_ms = self.config.interval_s * 1000
        lo, hi = time_range_ms
        piece_ms = max(1, int(piece_intervals)) * interval_ms
        # model continuity across pieces rides the checkpoint store; a
        # task-private directory when the caller didn't bring one
        ckpt = checkpoint_dir or os.path.join(task_store.root, f"{task['_id']}_ckpt")
        if checkpoint_dir is None:
            # restart-from-scratch (the reference resets non-finished
            # historical tasks): a crashed attempt's task-private
            # checkpoints would make the rerun drop already-seen windows
            # as out-of-order and emit a partial result set
            shutil.rmtree(ckpt, ignore_errors=True)
        if results_dir and write_mode == "replace":
            # clear this range's day partitions — later pieces APPEND, so
            # a crashed attempt's partial rows in those days would
            # otherwise duplicate on the rerun
            for day in range(lo // 86_400_000, hi // 86_400_000 + 1):
                shutil.rmtree(os.path.join(results_dir, f"result_date={day}"),
                              ignore_errors=True)
        out_after = self.config.model_output_after()
        total_rows = 0
        outs = []
        plo, first = lo, True
        while plo < hi:
            phi = min(hi, plo + piece_ms)
            task_store.update_progress(task["_id"], current_piece=(plo, phi))
            if results_dir:
                total_rows += self._detect_into(
                    results_dir, write_mode if first else "append", checkpoint_dir=ckpt,
                    time_range_ms=(plo, phi), cold_start_history=first)
            else:
                res = detect(self._source(), self.config, ts_col=self.ts_col,
                             checkpoint_dir=ckpt, time_range_ms=(plo, phi),
                             cold_start_history=first).materialize()
                total_rows += res.count()
                outs.append(res)
            task_store.update_progress(
                task["_id"],
                task_progress=(phi - lo) / max(1, hi - lo),
                init_progress=((phi - lo) / interval_ms) / max(1, out_after),
            )
            plo, first = phi, False
        task_store.transition(task["_id"], "FINISHED", n_result_rows=total_rows)
        if results_dir:
            return results_dir
        return outs[0] if len(outs) == 1 else outs[0].union(*outs[1:])

    def start_job(self, results_dir: str, checkpoint_dir: str):
        """One realtime tick: continue checkpointed models over whatever
        new windows the input now holds (idempotent — overlapping windows
        are dropped as out-of-order). Results APPEND: a tick emits only
        its new windows, so earlier same-day partitions must survive."""
        return self.run_once(results_dir=results_dir, checkpoint_dir=checkpoint_dir,
                             write_mode="append")

    # ---- forecast side (forecast/rest/*: _run once, job start/stop) ----

    def forecast_run_once(self, horizon: int = 24, period: int = 0,
                          results_dir: str | None = None,
                          checkpoint_dir: str | None = None,
                          write_mode: str = "replace"):
        """One forecast pass (``forecast/rest`` _run): per-entity
        Holt-Winters streams over all windows, emitting per-horizon rows
        (ForecastResult semantics). With ``results_dir`` the rows land in
        the date-partitioned forecast sink."""
        from ..stages.sink import forecast_day, rows_written, write_dir, write_part
        from .forecast import forecast, forecast_parts

        kw = dict(horizon=horizon, period=period, ts_col=self.ts_col, checkpoint_dir=checkpoint_dir)
        if not results_dir:
            return forecast(self._source(), self.config, **kw)
        with write_dir(results_dir, write_mode) as d:
            rows_written(forecast_parts(self._source(), self.config, **kw, then=functools.partial(
                write_part, out_dir=d, day=forecast_day)))
        return results_dir

    def forecast_start_job(self, results_dir: str, checkpoint_dir: str,
                           horizon: int = 24, period: int = 0):
        """One realtime forecast tick: continue checkpointed forecaster
        streams over whatever new windows the input now holds
        (idempotent — overlapping windows drop as out-of-order). Results
        APPEND so same-day ticks accumulate."""
        return self.forecast_run_once(horizon=horizon, period=period,
                                      results_dir=results_dir,
                                      checkpoint_dir=checkpoint_dir,
                                      write_mode="append")

    MAX_SHINGLE_SIZE = 128              # TimeSeriesSettings.java:22
    HORIZON_SHINGLE_RATIO = 3           # Forecaster.java:108

    def forecast_validate(self, horizon: int | None = None, period: int = 0) -> dict:
        """Forecast-side _validate (``RestValidateForecasterAction.java:
        1-116`` routes into the same validation surface as the detector;
        ``forecast/rest/handler/*``): the detector checks (feature source
        columns exist, recent-window NaN rate, interval sanity vs the
        suggested interval) plus the forecaster-specific rules —
        ``invalidHorizon`` (``Forecaster.java:235-238``: 1 ≤ horizon ≤
        MAX_SHINGLE_SIZE × 3), the suggested horizon (``suggestHorizon``
        = shingle × 3, ``Forecaster.java:561-563``) and a seasonality
        suggestion from the windowed feature autocorrelation."""
        base = self.validate()            # shared detector-side surface
        issues = list(base["issues"])
        suggested_horizon = self.config.shingle_size * self.HORIZON_SHINGLE_RATIO
        if horizon is not None and not (
            1 <= horizon <= self.MAX_SHINGLE_SIZE * self.HORIZON_SHINGLE_RATIO
        ):
            issues.append(
                f"horizon {horizon} outside [1, "
                f"{self.MAX_SHINGLE_SIZE * self.HORIZON_SHINGLE_RATIO}]"
            )
        if len(self.config.features) != 1:
            issues.append("forecasting expects exactly one feature")
        suggested_period = 0
        if not issues or all("horizon" in i or "feature" in i for i in issues):
            # only probe data when the config shape itself is sane
            suggested_period = self.suggest_period()
            if period and suggested_period and period != suggested_period:
                issues.append(
                    f"configured period {period} differs from detected "
                    f"seasonality {suggested_period}"
                )
        return {
            **base,
            "ok": not issues,
            "issues": issues,
            "suggested_horizon": suggested_horizon,
            "suggested_period": suggested_period,
        }

    def top_forecasts(self, k: int = 5, build_in_query: str = "MAX_VALUE_WITHIN_THE_HORIZON",
                      horizon: int = 24, period: int = 0, threshold: float | None = None,
                      relation: str = "GREATER_THAN"):
        """_topForecasts (``SearchTopForecastResultTransportAction``):
        run the forecast and rank entities by the built-in sub-agg. A
        malformed request raises before the forecast runs."""
        from .forecast import forecast, forecast_ranking, top_forecast_results

        forecast_ranking(build_in_query, threshold, relation)
        fc = forecast(self._source(), self.config, horizon=horizon, period=period,
                      ts_col=self.ts_col)
        return top_forecast_results(
            fc, self.config, k=k, build_in_query=build_in_query,
            horizon=horizon, threshold=threshold, relation=relation,
        )

    # ---- _profile / _stats / _topAnomalies ----

    def profile(self, checkpoint_dir: str | None = None, entity: dict | None = None) -> dict:
        """Detector profile (``ProfileRunner.java:271,301``): entity
        counts + (with a checkpoint dir) per-model state — init progress
        (n_points / output_after), model size in bytes, last seen window.
        ``entity`` narrows to one entity (``EntityProfileRunner``)."""
        import ray

        from ..state.checkpoint import list_checkpoints

        cats = list(self.config.category_fields)
        n_entities = 1
        if cats:
            # per-block distinct keys, one per-entity exchange; each part
            # counts its own keys and the driver sums the counts
            def distinct(t: pa.Table) -> pa.Table:
                return t.group_by(cats, use_threads=False).aggregate([])

            refs = exchange_by_key(
                self._ds(columns=cats), distinct, cats,
                lambda part: pa.table({"n": [distinct(part).num_rows]}),
                lambda: self._schema().empty_table())
            n_entities = sum(t["n"][0].as_py() for t in ray.get(refs))
        out = {
            "config_id": self.config.config_id,
            "n_entities": int(n_entities),
            "interval_s": self.config.interval_s,
            "shingle_size": self.config.shingle_size,
            "features": self.config.feature_names(),
        }
        if checkpoint_dir:
            from ..functions.hashing import entity_model_id

            metas = [m for _, m in list_checkpoints(checkpoint_dir)]
            output_after = self.config.model_output_after()
            models = [
                {
                    "model_id": m["model_id"],
                    "n_points": m.get("n_points"),
                    "init_progress": round(min(1.0, (m.get("n_points") or 0) / output_after), 3),
                    "model_size_bytes": m.get("bytes"),
                    "last_window_end_ms": m.get("last_window_end"),
                }
                for m in metas
            ]
            out["n_models"] = len(models)
            out["total_model_bytes"] = int(sum(m["model_size_bytes"] or 0 for m in models))
            out["init_progress"] = round(
                float(np.mean([m["init_progress"] for m in models])) if models else 0.0, 3
            )
            if entity is not None:
                mid = entity_model_id(self.config.config_id, {k: str(v) for k, v in entity.items()})
                out["entity"] = entity
                out["entity_model"] = next((m for m in models if m["model_id"] == mid), None)
                out["entity_state"] = (
                    "RUNNING" if out["entity_model"] and out["entity_model"]["init_progress"] >= 1.0
                    else "INIT" if out["entity_model"] else "NOT_STARTED"
                )
                # EntityProfileRunner.java:305-324 data/model recency:
                # is_active = the entity's model is materialized (our
                # checkpoint store is the cache analogue),
                # last_active_ms = the model's last processed window,
                # last_sample_ms = the latest raw sample for the entity
                # in the (filter_query-scoped) source
                em = out["entity_model"]
                out["is_active"] = em is not None
                out["last_active_ms"] = em["last_window_end_ms"] if em else None
                out["last_sample_ms"] = self._entity_last_sample_ms(entity)
            else:
                out["models"] = models[:100]
        return out

    def task_profile(self, task_store, time_range_ms=None,
                     checkpoint_dir: str | None = None) -> dict:
        """_profile of a historical run — ``ADTaskProfileRunner.java:36-66``
        assembling ``ADTaskProfile.java``: the task doc (state,
        task_progress/init_progress, current piece, result count) plus
        model-side totals gathered from the checkpoint store (the
        reference polls each data node's task cache): model count, byte
        total, and ``rcf_total_updates`` (max points any model consumed).
        ``checkpoint_dir`` defaults to the piece-runner's task-private
        directory under the task store root."""
        from ..state.checkpoint import list_checkpoints

        tid = task_store.task_id(self.config.config_id, time_range_ms)
        doc = task_store.get(tid)
        ckpt = checkpoint_dir or os.path.join(task_store.root, f"{tid}_ckpt")
        metas = [m for _, m in list_checkpoints(ckpt)]
        return {
            "task": doc,
            "n_models": len(metas),
            "total_model_bytes": int(sum(m.get("bytes") or 0 for m in metas)),
            "rcf_total_updates": int(max((m.get("n_points") or 0 for m in metas), default=0)),
            "shingle_size": self.config.shingle_size,
        }

    def _entity_last_sample_ms(self, entity: dict) -> int | None:
        """Latest raw-sample timestamp (epoch ms) for one entity — the
        EntityProfileRunner's last-sample search (a max-ts agg over the
        entity's term filter), distributed: per-block filter + max, tiny
        driver-side reduce (``stages.window.ts_range_ms``)."""
        from ..stages.window import ts_range_ms

        ts_col = self.ts_col
        items = [(k, str(v)) for k, v in entity.items()]

        def keep(b: pa.Table) -> pa.Table:
            m = None
            for k, v in items:
                mm = pc.equal(pc.cast(b[k], pa.string()), v)
                m = mm if m is None else pc.and_(m, mm)
            return b.filter(m).select([ts_col])

        return ts_range_ms(self._ds(pruned=True).map_batches(
            keep, batch_format="pyarrow", zero_copy_batch=True), ts_col)[1]

    def top_anomalies(self, k: int = 10) -> pd.DataFrame:
        from .detector import detect, top_anomaly_results

        res = detect(self._source(), self.config, ts_col=self.ts_col)
        return top_anomaly_results(res, self.config, k=k)
