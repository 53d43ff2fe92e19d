"""Forecast surface: HoltWinters core + end-to-end pipeline."""

import numpy as np
import pandas as pd
import pytest

from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
from anomaly_detection_ray.state.forecaster import HoltWintersForecaster


def _feed(f, vals):
    for v in vals:
        f.update(v)
        f.forecast()


def test_forecasts_trend():
    f = HoltWintersForecaster(horizon=5, output_after=10)
    _feed(f, [10 + 2 * i for i in range(200)])  # slope 2
    fc = f.forecast()
    expect = 10 + 2 * 199 + 2 * np.arange(1, 6)
    assert np.allclose(fc["values"], expect, atol=1.0)
    assert (fc["upper"] >= fc["values"]).all() and (fc["lower"] <= fc["values"]).all()


def test_forecasts_seasonal_cosine():
    period = 24
    f = HoltWintersForecaster(horizon=period, period=period, output_after=32)
    series = [100 + 50 * np.cos(2 * np.pi * i / period) for i in range(period * 8)]
    _feed(f, series)
    fc = f.forecast()
    future = np.array([100 + 50 * np.cos(2 * np.pi * (len(series) + h) / period) for h in range(period)])
    rmse = float(np.sqrt(np.mean((fc["values"] - future) ** 2)))
    assert rmse < 10.0, rmse  # amplitude 50 → forecast tracks the cycle


def test_bounds_cover_noisy_series():
    rng = np.random.default_rng(3)
    period = 12
    f = HoltWintersForecaster(horizon=6, period=period, output_after=32, confidence=0.9)
    series = [50 + 20 * np.sin(2 * np.pi * i / period) + rng.normal(0, 2) for i in range(400)]
    # walk through, checking 1-step coverage after warm-up
    hits = tot = 0
    for i, v in enumerate(series):
        fc = f.forecast()
        if fc is not None and i > 100:
            tot += 1
            hits += fc["lower"][0] - 1e-9 <= v <= fc["upper"][0] + 1e-9
        f.update(v)
    assert tot > 200
    assert hits / tot >= 0.8, hits / tot  # 90%-quantile bounds ⇒ ≥80% observed coverage


def test_warmup_and_determinism():
    f = HoltWintersForecaster(horizon=3, output_after=32)
    for i in range(31):
        f.update(float(i))
    assert f.forecast() is None
    f.update(31.0)
    assert f.forecast() is not None
    g1, g2 = HoltWintersForecaster(horizon=4), HoltWintersForecaster(horizon=4)
    data = list(np.random.default_rng(1).normal(size=100))
    _feed(g1, data)
    _feed(g2, data)
    assert np.array_equal(g1.forecast()["values"], g2.forecast()["values"])
    assert np.array_equal(g1.forecast()["upper"], g2.forecast()["upper"])


def test_forecast_pipeline_end_to_end(ray_session):
    import ray.data as rd

    from anomaly_detection_ray.pipelines.forecast import forecast
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=4, n_windows=240, interval_s=600, seed=5,
                                 anomaly_prob=0.0, period=48)
    cfg = DetectorConfig(
        config_id="fc",
        interval_s=600,
        category_fields=("entity",),
        features=(FeatureSpec("value_avg", "value", "avg"),),
    )
    out = forecast(rd.from_arrow(t), cfg, horizon=12, period=48).to_pandas()
    assert set(out["entity"]) == {f"entity{e:03d}" for e in range(4)}
    assert len(out) == 4 * 12
    g = out[out["entity"] == "entity000"].sort_values("horizon_index")
    assert (np.diff(g["forecast_window_end_ms"]) == 600_000).all()
    assert (g["forecast_upper"] >= g["forecast_lower"]).all()
    # forecast continues the cosine: error well under amplitude
    truth = t.to_pandas()
    truth = truth[truth["entity"] == "entity000"]
    amp = truth["value"].max() - truth["value"].min()
    last = truth["value"].tail(48).to_numpy()
    # 48-window period: horizon h aligns with the value 48−h windows back
    expect = last[np.arange(12) - 48 + 48]  # = last[0:12] one period earlier
    err = np.abs(g["forecast_value"].to_numpy() - expect).mean()
    assert err < amp * 0.25, (err, amp)


def test_horizon_slots_score_correct_step():
    """ADVICE r1: the first value after a forecast is the 1-step target
    (slot 0); pre-fix it was never scored and every slot was one step off."""
    f = HoltWintersForecaster(horizon=3, output_after=2)
    f.update(0.0)
    f.update(1.0)
    assert f.record_forecast()  # made after observing 2 points → predicts points 3,4,5
    fc0 = f._pending[-1][1][0]
    f.update(2.0)  # point 3 → horizon step 1 → slot 0
    assert len(f._errors[0]) == 1
    assert f._errors[0][0] == pytest.approx(abs(2.0 - fc0))
    f.update(3.0)  # step 2 → slot 1
    f.update(4.0)  # step 3 → slot 2, then the pending entry is exhausted
    assert len(f._errors[1]) == 1 and len(f._errors[2]) == 1
    assert not f._pending


def test_record_forecast_matches_forecast_values():
    f1 = HoltWintersForecaster(horizon=4, output_after=4)
    f2 = HoltWintersForecaster(horizon=4, output_after=4)
    data = list(np.random.default_rng(11).normal(size=60))
    for v in data:
        f1.update(v)
        f1.forecast()
    for v in data:
        f2.update(v)
        f2.record_forecast()
    a, b = f1.forecast(), f2.forecast()
    assert np.array_equal(a["values"], b["values"])
    assert np.array_equal(a["upper"], b["upper"])


def test_forecast_checkpoint_continuation_equals_single_run(ray_session, tmp_path):
    """Forecast job tick (C6 for the forecast side): two checkpointed runs
    over consecutive halves emit exactly the forecast of one run over the
    whole stream."""
    _check_split_equals_single(tmp_path, "holt_winters")


def test_forecast_rcf_checkpoint_continuation_equals_single_run(ray_session, tmp_path):
    """The same for the RCF backend: the second run's forecasters restore
    their forests from the checkpointed topology, and ``impute_batch``
    walks the restored boxes and counts (heavier child on the missing
    dim), so a restore that differs from the build moves the forecast."""
    _check_split_equals_single(tmp_path, "rcf")


def test_forecast_checkpoint_key_is_pinned(tmp_path):
    """A forecaster's checkpoint key is ``forecast_<config_id>_<entity
    values, |-joined>``, each value ``str()`` of its Python value:
    ``e1`` for a string category, ``7`` for an int64 one, also when that
    column holds nulls (a null-keyed row belongs to no entity). Another
    spelling would cold-start every checkpointed forecast stream."""
    import glob

    import pyarrow as pa

    from anomaly_detection_ray.pipelines.forecast import ForecastGroups
    from anomaly_detection_ray.stages.window import window_partials
    from anomaly_detection_ray.state.checkpoint import CheckpointStore

    cfg = DetectorConfig(
        config_id="fc-key", interval_s=600, category_fields=("region", "host"),
        features=(FeatureSpec("value_avg", "value", "avg"),),
    )
    ts = pa.array(np.arange(6, dtype=np.int64) * 600_000).cast(pa.timestamp("ms"))
    for host in (pa.array([7] * 6, pa.int64()), pa.array([7, None] * 3, pa.int64())):
        ck = str(tmp_path / f"ck{host.null_count}")
        t = pa.table({"ts": ts, "region": ["e1"] * 6, "host": host, "value": np.arange(6.0)})
        ForecastGroups(
            value_col="value_avg", interval_ms=600_000, horizon=2, period=0,
            entity_cols=cfg.category_fields, config=cfg, checkpoint_dir=ck, config_id=cfg.config_id,
        )(window_partials(t, cfg))
        assert len(glob.glob(f"{ck}/*/*.pkl")) == 1
        state = CheckpointStore(ck).load_state("forecast_fc-key_e1|7")
        assert state["last_window_end"] == (5 if host.null_count else 6) * 600_000


def _check_split_equals_single(tmp_path, backend: str) -> None:
    import ray.data as rd

    from anomaly_detection_ray.pipelines.forecast import forecast
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=3, n_windows=200, interval_s=600, seed=8,
                                 anomaly_prob=0.0, period=24)
    cfg = DetectorConfig(
        config_id="fc-ckpt", interval_s=600, category_fields=("entity",),
        features=(FeatureSpec("value_avg", "value", "avg"),),
    )
    df = t.to_pandas()
    ts_ms = df["ts"].astype("datetime64[ms]").astype("int64")
    cut = int(ts_ms.min() + (ts_ms.max() - ts_ms.min()) // 2 // 600_000 * 600_000)
    import pyarrow as pa
    first = pa.Table.from_pandas(df[ts_ms < cut], preserve_index=False)
    second = pa.Table.from_pandas(df[ts_ms >= cut], preserve_index=False)
    ck = str(tmp_path / "fc")
    sort_cols = ["entity", "horizon_index"]
    kw = dict(horizon=8, period=24, backend=backend)
    forecast(rd.from_arrow(first), cfg, checkpoint_dir=ck, **kw).to_pandas()
    split = forecast(rd.from_arrow(second), cfg, checkpoint_dir=ck, **kw)\
        .to_pandas().sort_values(sort_cols).reset_index(drop=True)
    full = forecast(rd.from_arrow(t), cfg, **kw)\
        .to_pandas().sort_values(sort_cols).reset_index(drop=True)
    assert len(full) == 3 * 8
    pd.testing.assert_frame_equal(split[full.columns], full)
    # rerunning the same tick is idempotent (all windows drop as OOO)
    again = forecast(rd.from_arrow(second), cfg, checkpoint_dir=ck, **kw)\
        .to_pandas().sort_values(sort_cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(again[full.columns], full)


def test_forecast_run_once_sink(ray_session, tmp_path):
    """forecast_run_once writes date-partitioned per-horizon rows."""
    import glob

    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=2, n_windows=120, interval_s=600, seed=3,
                                 anomaly_prob=0.0, period=24)
    events = str(tmp_path / "events.parquet")
    import pyarrow.parquet
    pyarrow.parquet.write_table(t, events)
    cfg = DetectorConfig(
        config_id="fc-api", interval_s=600, category_fields=("entity",),
        features=(FeatureSpec("value_avg", "value", "avg"),),
    )
    out = str(tmp_path / "fc_out")
    DetectorAPI(cfg, events).forecast_run_once(horizon=6, period=24, results_dir=out)
    files = glob.glob(out + "/**/*.parquet", recursive=True)
    assert files and any("result_date=" in f for f in files)
    rows = pq.read_table(files[0])
    assert {"forecast_value", "forecast_lower", "forecast_upper", "horizon_index"} <= set(rows.column_names)


def test_suggest_period_detects_seasonality(ray_session, tmp_path):
    """Forecast-side validation: FFT-autocorrelation period suggestion
    recovers the generator's known 24-window cycle; white noise → 0."""
    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=3, n_windows=240, interval_s=600, seed=4,
                                 anomaly_prob=0.0, period=24)
    p1 = str(tmp_path / "seasonal.parquet")
    pq.write_table(t, p1)
    cfg = DetectorConfig(
        config_id="sp", interval_s=600, category_fields=("entity",),
        features=(FeatureSpec("value_avg", "value", "avg"),),
    )
    assert DetectorAPI(cfg, p1).suggest_period() == 24
    # pure noise: no clear seasonality
    rng = np.random.default_rng(0)
    import pyarrow as pa
    n = 240
    noise = pa.table({
        "entity": ["e"] * n,
        "ts": pa.array((np.arange(n) + 1) * 600_000, pa.int64()).cast(pa.timestamp("ms")),
        "value": rng.normal(0, 1, n),
    })
    p2 = str(tmp_path / "noise.parquet")
    pq.write_table(noise, p2)
    assert DetectorAPI(cfg, p2).suggest_period() == 0


def test_rcf_forecaster_core():
    """Caster-shape backend: forest conditional expectation tracks a
    seasonal series; deterministic; split-run continues exactly."""
    import pickle

    from anomaly_detection_ray.state.forecaster import RCFForecaster

    period = 24
    f = RCFForecaster(horizon=12, shingle=8, num_trees=15, sample_size=128,
                      seed=1, output_after=32)
    series = [100 + 50 * np.cos(2 * np.pi * i / period) for i in range(400)]
    for v in series:
        f.update(v)
        f.record_forecast()
    fc = f.forecast()
    future = np.array([100 + 50 * np.cos(2 * np.pi * (400 + h) / period) for h in range(12)])
    rmse = float(np.sqrt(np.mean((fc["values"] - future) ** 2)))
    assert rmse < 15.0, rmse  # amplitude 50 — the forest follows the cycle
    assert (fc["upper"] >= fc["values"]).all() and (fc["lower"] <= fc["values"]).all()
    g1, g2 = RCFForecaster(horizon=6, shingle=4, seed=3), RCFForecaster(horizon=6, shingle=4, seed=3)
    data = np.random.default_rng(2).normal(50, 3, 150)
    for v in data:
        g1.update(v)
        g1.record_forecast()
        g2.update(v)
        g2.record_forecast()
    assert np.array_equal(g1.forecast()["values"], g2.forecast()["values"])
    g3 = pickle.loads(pickle.dumps(g1))
    for v in data[:40]:
        g1.update(v)
        g3.update(v)
    assert np.array_equal(g1.forecast()["values"], g3.forecast()["values"])


def test_forecast_pipeline_rcf_backend(ray_session):
    """backend='rcf' end-to-end through the fused pipeline."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.forecast import forecast
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=3, n_windows=200, interval_s=600, seed=5,
                                 anomaly_prob=0.0, period=24)
    cfg = DetectorConfig(
        config_id="fc-rcf", interval_s=600, category_fields=("entity",),
        features=(FeatureSpec("value_avg", "value", "avg"),),
    )
    out = forecast(rd.from_arrow(t), cfg, horizon=8, backend="rcf").to_pandas()
    assert len(out) == 3 * 8
    g = out[out["entity"] == "entity000"].sort_values("horizon_index")
    assert (g["forecast_upper"] >= g["forecast_lower"]).all()
    # forecast stays within the series' value envelope (it's a forest
    # of observed shingles — it cannot extrapolate outside them)
    truth = t.to_pandas()
    tv = truth[truth["entity"] == "entity000"]["value"]
    assert g["forecast_value"].between(tv.min() - 1, tv.max() + 1).all()


def test_top_forecast_results_planted_extreme(ray_session):
    """Forecast analogue of _topAnomalies: a planted entity whose level is
    10x the rest must rank first under MAX_VALUE_WITHIN_THE_HORIZON, and
    DISTANCE_TO_THRESHOLD filters + ranks per relation
    (SearchTopForecastResultTransportAction.java:601-830)."""
    import pyarrow as pa
    import ray.data as rd

    from anomaly_detection_ray.pipelines.forecast import forecast, top_forecast_results

    rng = np.random.default_rng(2)
    n_win = 120
    rows = []
    for e, level in [("a", 10.0), ("b", 12.0), ("hot", 120.0), ("c", 9.0)]:
        for w in range(n_win):
            rows.append((e, (w + 1) * 600_000, level + rng.normal(0, 0.5)))
    t = pa.table({
        "entity": [r[0] for r in rows],
        "ts": pa.array([r[1] for r in rows], pa.int64()).cast(pa.timestamp("ms")),
        "value": [r[2] for r in rows],
    })
    cfg = DetectorConfig(config_id="fc-top", interval_s=600, category_fields=("entity",),
                         features=(FeatureSpec("value_avg", "value", "avg"),))
    fc = forecast(rd.from_arrow(t), cfg, horizon=6).materialize()

    top = top_forecast_results(fc, cfg, k=2, build_in_query="MAX_VALUE_WITHIN_THE_HORIZON")
    assert list(top["entity"]) == ["hot", "b"]
    assert top["MAX_VALUE_WITHIN_THE_HORIZON"].iloc[0] > 100

    low = top_forecast_results(fc, cfg, k=2, build_in_query="MIN_VALUE_WITHIN_THE_HORIZON")
    assert list(low["entity"]) == ["c", "a"]

    # threshold filter: only 'hot' forecasts above 50; GREATER_THAN ranks desc
    th = top_forecast_results(fc, cfg, k=5, build_in_query="DISTANCE_TO_THRESHOLD_VALUE",
                              threshold=50.0, relation="GREATER_THAN")
    assert list(th["entity"]) == ["hot"]

    # interval width at the final horizon step only (term filter on horizon)
    w = top_forecast_results(fc, cfg, k=4, build_in_query="MIN_CONFIDENCE_INTERVAL_WIDTH",
                             horizon=6)
    assert len(w) == 4 and (w["MIN_CONFIDENCE_INTERVAL_WIDTH"] >= 0).all()


def test_top_forecast_arguments_checked_before_ray_work(ray_session, tmp_path, monkeypatch):
    """An unknown ``relation`` and a threshold query without a threshold
    raise ``ValueError`` in the driver: ``top_forecast_results`` never
    touches its Dataset, and ``DetectorAPI.top_forecasts`` raises before
    the forecast runs."""
    from anomaly_detection_ray.pipelines import forecast as forecast_mod
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    cfg = DetectorConfig(config_id="fc-args", interval_s=600, category_fields=("entity",),
                         features=(FeatureSpec("value_avg", "value", "avg"),))
    bad = [dict(build_in_query="DISTANCE_TO_THRESHOLD_VALUE", threshold=1.0, relation="NEAR"),
           dict(build_in_query="DISTANCE_TO_THRESHOLD_VALUE")]

    def no_forecast(*args, **kwargs):
        raise AssertionError("forecast() ran")

    monkeypatch.setattr(forecast_mod, "forecast", no_forecast)
    api = DetectorAPI(cfg, str(tmp_path / "never_read.parquet"))
    for kw, match in zip(bad, ["relation", "threshold"]):
        with pytest.raises(ValueError, match=match):
            forecast_mod.top_forecast_results(None, cfg, **kw)
        with pytest.raises(ValueError, match=match):
            api.top_forecasts(**kw)


def test_forecast_validate_surface(ray_session, tmp_path):
    """forecast_validate: detector checks + horizon bounds
    (Forecaster.java:235-238) + suggested horizon (shingle x 3) +
    seasonality hint; empty input doesn't crash."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=2, n_windows=200, interval_s=600, seed=3,
                                 anomaly_prob=0.0, period=24)
    p = str(tmp_path / "ev.parquet")
    pq.write_table(t, p)
    cfg = DetectorConfig(config_id="fv", interval_s=600, shingle_size=8,
                         category_fields=("entity",),
                         features=(FeatureSpec("value_avg", "value", "avg"),))
    api = DetectorAPI(cfg, p)
    res = api.forecast_validate(horizon=24, period=24)
    assert res["suggested_horizon"] == 24  # shingle 8 x 3
    assert res["suggested_period"] == 24   # planted seasonality
    assert res["ok"], res["issues"]

    bad = api.forecast_validate(horizon=1000)
    assert not bad["ok"] and any("horizon" in i for i in bad["issues"])

    two = DetectorAPI(DetectorConfig(config_id="fv2", interval_s=600,
                                     category_fields=("entity",),
                                     features=(FeatureSpec("a", "value", "avg"),
                                               FeatureSpec("b", "value", "max"))), p)
    assert any("one feature" in i for i in two.forecast_validate()["issues"])

    # empty input edge: no crash, flags the empty data
    pe = str(tmp_path / "empty.parquet")
    pq.write_table(t.slice(0, 0), pe)
    empty_res = DetectorAPI(cfg, pe).forecast_validate(horizon=24)
    assert isinstance(empty_res, dict) and "suggested_horizon" in empty_res
