"""Realtime continuation (C6 across pipeline runs), checkpoint GC (E3),
decayed priority (D3), insights (D10)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
from anomaly_detection_ray.stages.correlation import generate_insights
from anomaly_detection_ray.state.checkpoint import CheckpointStore
from anomaly_detection_ray.state.model import TRCFModel


def _cfg():
    return DetectorConfig(
        config_id="rt",
        interval_s=600,
        shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),),
        category_fields=("entity",),
        num_trees=10,
        sample_size=64,
    )


def test_realtime_continuation_equals_single_run(ray_session, tmp_path):
    """Two checkpointed pipeline runs over consecutive halves of a stream
    produce exactly the results of one uncheckpointed run over the whole
    stream — the realtime interval-tick model (§3.1): each tick continues
    the models the previous tick saved."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=3, n_windows=120, interval_s=600, seed=9,
                                 anomaly_prob=0.02)
    df = t.to_pandas()
    ts_ms = df["ts"].astype("datetime64[ms]").astype("int64")
    cut = int(ts_ms.min() + (ts_ms.max() - ts_ms.min()) // 2 // 600_000 * 600_000)
    first = pa.Table.from_pandas(df[ts_ms < cut], preserve_index=False)
    second = pa.Table.from_pandas(df[ts_ms >= cut], preserve_index=False)

    cfg = _cfg()
    ckpt = str(tmp_path / "ckpts")
    sort_cols = ["model_id", "window_end_ms"]
    a1 = detect(rd.from_arrow(first), cfg, checkpoint_dir=ckpt).to_pandas()
    a2 = detect(rd.from_arrow(second), cfg, checkpoint_dir=ckpt).to_pandas()
    split = pd.concat([a1, a2]).sort_values(sort_cols).reset_index(drop=True)
    full = detect(rd.from_arrow(t), cfg).to_pandas().sort_values(sort_cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(split, full)


def test_checkpoint_gc(tmp_path):
    cfg = _cfg()
    store = CheckpointStore(str(tmp_path))
    old, new = TRCFModel(cfg, "old"), TRCFModel(cfg, "new")
    old.process(np.array([1.0]), 600_000)
    new.process(np.array([1.0]), 600_000 * 1000)
    store.save(old)
    store.save(new)
    assert store.gc(before_window_end_ms=600_000 * 500) == 1
    assert store.load("old") is None
    assert store.load("new") is not None


def test_checkpoint_v1_golden_bwc(tmp_path):
    """Backward compatibility: a GOLDEN pre-versioning (format 1)
    checkpoint committed to the repo restores byte-identically and
    continues its stream with frozen expected scores — the reference
    round-trips golden checkpoints of every historical schema
    (``src/test/resources/org/opensearch/ad/ml/checkpoint_1..4.json``,
    ``ADCheckpointDao.java:60-138``). Re-saving stamps the current
    format_version; an unknown version refuses with a message instead of
    mis-deserializing."""
    import json
    import os
    import pickle
    import shutil

    from anomaly_detection_ray.functions.hashing import sha256_hex
    from anomaly_detection_ray.state.checkpoint import FORMAT_VERSION

    golden = os.path.join(os.path.dirname(__file__), "data", "checkpoint_v1")
    root = str(tmp_path / "store")
    shutil.copytree(golden, root)
    expected = json.load(open(os.path.join(root, "expected.json")))
    store = CheckpointStore(root)

    # the stored blob is byte-identical to what was committed …
    p = store._path("golden-v1-model")
    blob = open(p, "rb").read()
    assert sha256_hex(blob) == expected["sha256"]
    assert "format_version" not in pickle.loads(blob)  # truly pre-stamp

    # … the current reader restores it and continues the stream exactly
    m = store.load("golden-v1-model")
    assert m is not None and m.n_points == 200
    t0 = 1704067200000
    cont = []
    for i in range(200, 220):
        r = m.process(np.array([100.0 + 10 * np.sin(i / 6)]), t0 + (i + 1) * 600_000)
        cont.append([float(r["anomaly_score"]), float(r["anomaly_grade"])])
    assert cont == expected["continuation"]

    # re-save stamps the current version (blob + sidecar meta) and reloads
    meta = store.save(m)
    assert meta["format_version"] == FORMAT_VERSION
    assert pickle.loads(open(p, "rb").read())["format_version"] == FORMAT_VERSION
    assert store.load("golden-v1-model") is not None

    # a NEWER/unknown version refuses with a clear message, never a
    # silent cold start
    state = pickle.loads(open(p, "rb").read())
    state["format_version"] = FORMAT_VERSION + 1
    open(p, "wb").write(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))
    with pytest.raises(ValueError, match="format_version"):
        store.load("golden-v1-model")


def test_checkpoint_v2_golden_restores_without_rebuild(tmp_path, monkeypatch):
    """A GOLDEN format-2 checkpoint (the ``checkpoint_v1`` stream recipe:
    config ``golden-v2`` = the v1 fixture's config, 200 windows of
    ``100 + 10·sin(i/6)``) restores its forest from the stored topology —
    ``RCForest._build_from`` is never called — and continues the stream
    with frozen expected scores."""
    import json
    import os
    import pickle
    import shutil

    from anomaly_detection_ray.functions.hashing import sha256_hex
    from anomaly_detection_ray.state.rcf import RCForest

    golden = os.path.join(os.path.dirname(__file__), "data", "checkpoint_v2")
    root = str(tmp_path / "store")
    shutil.copytree(golden, root)
    expected = json.load(open(os.path.join(root, "expected.json")))
    store = CheckpointStore(root)
    blob = open(store._path("golden-v2-model"), "rb").read()
    assert sha256_hex(blob) == expected["sha256"]
    assert pickle.loads(blob)["format_version"] == 2

    def no_rebuild(*a, **k):
        raise AssertionError("a format-2 restore must not rebuild the forest")

    with monkeypatch.context() as mp:
        mp.setattr(RCForest, "_build_from", no_rebuild)
        m = store.load("golden-v2-model")
    assert m is not None and m.n_points == 200 and m.forest._built
    t0 = 1704067200000
    cont = []
    for i in range(200, 220):
        r = m.process(np.array([100.0 + 10 * np.sin(i / 6)]), t0 + (i + 1) * 600_000)
        cont.append([float(r["anomaly_score"]), float(r["anomaly_grade"])])
    assert cont == expected["continuation"]


def test_generate_insights():
    clusters = pd.DataFrame(
        {
            "model_id": ["m1", "m2", "m3", "m9"],
            "config_id": ["d1", "d2", "d1", "d9"],
            "start_ms": [0, 60_000, 120_000, 10**9],
            "end_ms": [600_000, 660_000, 720_000, 10**9 + 600_000],
            "cluster_id": [0, 0, 0, 3],
            "window_start_ms": [0, 0, 0, 10**9],
            "window_end_ms": [720_000, 720_000, 720_000, 10**9 + 600_000],
        }
    )
    ins = generate_insights(clusters)
    assert len(ins) == 1  # singleton cluster filtered
    row = ins.iloc[0]
    assert row["n_anomalies"] == 3 and row["n_models"] == 3 and row["n_configs"] == 2
    assert "3 anomalies" in row["summary"] and "2 detector" in row["summary"]
    assert len(generate_insights(clusters.iloc[:0])) == 0


def test_decayed_top_entities_recency(ray_session):
    """An entity with many OLD events ranks below one with fewer RECENT
    events once decay weights apply (the PriorityTracker property)."""
    import ray.data as rd

    from anomaly_detection_ray.stages.priority import decayed_top_entities

    base = 1_700_000_400_000
    rows = []
    # 'olda': 50 events in period 0; 'recent': 5 events in period 100
    for i in range(50):
        rows.append(("olda", base + i * 1000))
    for i in range(5):
        rows.append(("recent", base + 100 * 600_000 + i * 1000))
    t = pa.table(
        {
            "user": [r[0] for r in rows],
            "ts": pa.array(np.asarray([r[1] for r in rows], dtype="int64")).cast(pa.timestamp("ms")),
        }
    )
    out = decayed_top_entities(rd.from_arrow(t), "user", ts_col="ts", period_ms=600_000, k=2, landmark_ms=base)
    assert out.iloc[0]["user"] == "recent"
    # math check: priority = ln(sum g) shifted; recent: ln(5)+0.125*100
    assert out.iloc[0]["priority"] == pytest.approx(np.log(5) + 0.125 * 100, abs=1e-4)
    assert out.iloc[1]["priority"] == pytest.approx(np.log(50), abs=1e-4)


def test_decayed_priority_of_long_idle_entity_is_finite(ray_session):
    """Each entity is weighed from its OWN newest period: one last seen
    6,000 periods (41 days of 10-minute periods) before the newest event
    keeps ``ln(cnt) + 0.125·n`` instead of ``ln(0) = -inf`` (a shift by
    the global newest period underflows ``e^{-750}``)."""
    import ray.data as rd

    from anomaly_detection_ray.stages.priority import decayed_top_entities

    n_idle = 1_700_000_400_000 // 600_000
    ms = [n_idle * 600_000 + i for i in range(3)] + [(n_idle + 6000) * 600_000]
    t = pa.table({"user": ["idle"] * 3 + ["hot"],
                  "ts": pa.array(np.asarray(ms, dtype="int64")).cast(pa.timestamp("ms"))})
    out = decayed_top_entities(rd.from_arrow(t), "user", ts_col="ts", period_ms=600_000, k=2)
    assert list(out["user"]) == ["hot", "idle"]
    assert out["priority"].iloc[1] == pytest.approx(np.log(3) + 0.125 * n_idle, abs=1e-6)


def test_window_columns_all_timestamp_units():
    """ADVICE r1: pa.timestamp('s') columns were bucketed as milliseconds
    (windows 1000x off). All four units must agree on the same instant."""
    from anomaly_detection_ray.stages.window import add_window_columns

    base_s = 1_704_067_260  # NOT aligned to the 600 s interval
    want_start = base_s * 1000 // 600_000 * 600_000
    for unit, mult in [("s", 1), ("ms", 1000), ("us", 10**6), ("ns", 10**9)]:
        t = pa.table({"ts": pa.array([base_s * mult], pa.int64()).cast(pa.timestamp(unit))})
        out = add_window_columns(t, "ts", 600_000)
        assert out["window_start_ms"][0].as_py() == want_start, unit
        assert out["window_end_ms"][0].as_py() == want_start + 600_000, unit


def test_linear_gap_interpolation():
    """ADVICE r1: imputation='linear' must interpolate across a gap (both
    endpoints known when backfilling), not alias to previous-fill."""
    cfg = DetectorConfig(
        config_id="lin", interval_s=600, shingle_size=8, imputation="linear",
        features=(FeatureSpec("value_avg", "value", "avg"),),
    )
    m = TRCFModel(cfg, "e1")
    t0 = 600_000
    m.process(np.array([0.0]), t0)
    m.process(np.array([10.0]), t0 + 4 * 600_000)  # 3 missing windows
    pts = [p[0] for p in m.shingle]
    assert pts == pytest.approx([0.0, 2.5, 5.0, 7.5, 10.0])
    # contrast: previous-fill holds the last value flat
    cfg_prev = DetectorConfig(
        config_id="prev", interval_s=600, shingle_size=8, imputation="previous",
        features=(FeatureSpec("value_avg", "value", "avg"),),
    )
    mp = TRCFModel(cfg_prev, "e1")
    mp.process(np.array([0.0]), t0)
    mp.process(np.array([10.0]), t0 + 4 * 600_000)
    assert [p[0] for p in mp.shingle] == pytest.approx([0.0, 0.0, 0.0, 0.0, 10.0])


def test_run_ticks_incremental(ray_session, tmp_path):
    """Continuous-tick runner (JobProcessor.java:129-175 analogue): two
    ticks over a growing events dir produce exactly the rows a single
    full run would — tick 2 appends only the windows that arrived after
    tick 1 (idempotent overlap drop)."""
    import glob

    import pyarrow.parquet as pq

    from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.sources.streams import generate_interval_stream
    from anomaly_detection_ray.tick import config_from_json, run_ticks

    t = generate_interval_stream(n_entities=2, n_windows=120, interval_s=600, seed=7,
                                 anomaly_prob=0.02, events_per_window=2)
    df = t.to_pandas()
    ts_ms = df["ts"].astype("datetime64[ms]").astype("int64")
    cut = int(ts_ms.quantile(0.7))
    evdir = tmp_path / "events"
    evdir.mkdir()
    pq.write_table(t.filter((ts_ms <= cut).to_numpy()), str(evdir / "part1.parquet"))

    cfg = config_from_json({
        "config_id": "tick-e2e", "interval_s": 600, "shingle_size": 8,
        "category_fields": ["entity"],
        "features": [{"name": "value_avg", "column": "value", "agg": "avg"}],
        "num_trees": 5, "sample_size": 32,
    })
    assert isinstance(cfg, DetectorConfig) and cfg.features[0] == FeatureSpec("value_avg", "value", "avg")

    api = DetectorAPI(cfg, str(evdir))
    res_dir, ck_dir = str(tmp_path / "res"), str(tmp_path / "ck")

    def on_tick(i):
        if i == 1:  # data arrives between ticks
            pq.write_table(t.filter((ts_ms > cut).to_numpy()), str(evdir / "part2.parquet"))

    n = run_ticks(api, res_dir, ck_dir, n_ticks=2, interval_s=0,
                  sleep=lambda s: None, on_tick=on_tick)
    assert n == 2
    got = pq.read_table(glob.glob(res_dir + "/**/*.parquet", recursive=True)).to_pandas()
    # no duplicate windows across ticks, and full coverage vs a single run
    assert not got.duplicated(["model_id", "window_end_ms"]).any()
    full = api.run_once().to_pandas()
    assert len(got) == len(full)
    assert got["window_end_ms"].max() == full["window_end_ms"].max()
    # the checkpointed two-tick run equals the single run row for row
    cols = ["model_id", "window_end_ms", "anomaly_score", "anomaly_grade", "confidence"]
    key = ["model_id", "window_end_ms"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(key).reset_index(drop=True),
        full[cols].sort_values(key).reset_index(drop=True),
    )


@pytest.mark.xfail(strict=True, reason="checkpoints are saved before results are written")
def test_sink_failure_retry_emits_every_window(ray_session, tmp_path):
    """A tick whose result write fails after scoring can be retried, and
    the retry emits every new window. Today the scorer saves each model's
    checkpoint before the sink writes its rows, so the retry drops the
    windows as out-of-order and writes nothing."""
    import glob
    import os

    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.sources.streams import generate_interval_stream
    from anomaly_detection_ray.sources.tailing import TailingSource
    from anomaly_detection_ray.tick import run_ticks

    n_entities, n_hist = 10, 40
    t = generate_interval_stream(n_entities=n_entities, n_windows=n_hist + 1,
                                 interval_s=600, seed=3)
    ts_ms = t.to_pandas()["ts"].astype("datetime64[ms]").astype("int64").to_numpy()
    last = ts_ms.max()
    evdir = tmp_path / "events"
    evdir.mkdir()
    pq.write_table(t.filter(ts_ms < last), str(evdir / "hist.parquet"))

    api = DetectorAPI(_cfg(), str(evdir))
    src = TailingSource(str(evdir), str(tmp_path / "seen.json"))
    res_dir, ck_dir = str(tmp_path / "res"), str(tmp_path / "ck")

    def tick():
        run_ticks(api, res_dir, ck_dir, n_ticks=1, interval_s=0,
                  sleep=lambda s: None, tail_source=src)

    def results():
        files = glob.glob(res_dir + "/**/*.parquet", recursive=True)
        return pq.read_table(files).to_pandas()

    tick()
    hist_end = results()["window_end_ms"].max()
    pq.write_table(t.filter(ts_ms == last), str(evdir / "tick.parquet"))

    # the reducers write their own rows after scoring (and the checkpoint
    # saves): a regular file where the tick's day directory goes makes
    # every write fail inside the workers; the history's rows of that day
    # are held aside meanwhile
    day_dir = os.path.join(res_dir, f"result_date={(last // 600_000 + 1) * 600_000 // 86_400_000}")
    held = os.path.join(res_dir, ".held")
    os.replace(day_dir, held)
    with open(day_dir, "w") as f:
        f.write("sink unavailable")
    with pytest.raises(OSError):
        tick()
    os.remove(day_dir)
    os.replace(held, day_dir)
    tick()  # the retry

    got = results()
    assert not got.duplicated(["model_id", "window_end_ms"]).any()
    assert (got["window_end_ms"] > hist_end).sum() == n_entities


def test_ticks_run_without_ray_data(ray_session, tmp_path, monkeypatch):
    """A job tick is one raw-Ray task graph: with Ray Data's read, block
    iteration, write and ``from_arrow_refs`` patched to raise, a history
    tick and two one-window ticks run through ``run_ticks`` from a
    ``TailingSource``, detecting and forecasting. The detector's
    results directory equals one ``detect()`` over a Dataset of all the
    files (a checkpointed split equals a single run); each forecast
    tick's rows equal the same ticks run through the Dataset path."""
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.pipelines.forecast import forecast
    from anomaly_detection_ray.sources.streams import generate_interval_stream
    from anomaly_detection_ray.sources.tailing import TailingSource
    from anomaly_detection_ray.tick import run_ticks

    n_hist = 40
    t = generate_interval_stream(n_entities=6, n_windows=n_hist + 2, interval_s=600, seed=11)
    ts_ms = t.to_pandas()["ts"].astype("datetime64[ms]").astype("int64").to_numpy()
    win = ts_ms // 600_000 - ts_ms.min() // 600_000  # the detector's window index
    parts = [t.filter(win < n_hist), t.filter(win == n_hist), t.filter(win == n_hist + 1)]
    cfg = _cfg()

    def no_ray_data(*args, **kwargs):
        raise AssertionError("a tick ran Ray Data")

    def ticks(kind: str) -> tuple[list[str], list[pd.DataFrame]]:
        """The three ticks' input files and each tick's written rows."""
        d = tmp_path / kind
        evdir = d / "events"
        evdir.mkdir(parents=True)
        paths = [str(evdir / f"{i}.parquet") for i in range(3)]
        res_dir = str(d / "res")
        rows, seen = [], set()

        def land(i):
            if i < len(paths):
                pq.write_table(parts[i], paths[i])

        def on_tick(i):
            files = set(glob.glob(res_dir + "/**/*.parquet", recursive=True))
            new = sorted(files - seen)
            rows.append(pq.read_table(new).drop_columns(["result_date"]).to_pandas()
                        if new else None)
            seen.update(files)
            land(i)

        land(0)
        with monkeypatch.context() as m:
            m.setattr(rd, "read_parquet", no_ray_data)
            m.setattr(rd, "from_arrow_refs", no_ray_data)
            m.setattr(rd.Dataset, "iter_internal_ref_bundles", no_ray_data)
            m.setattr(rd.Dataset, "write_parquet", no_ray_data)
            n = run_ticks(DetectorAPI(cfg, str(evdir)), res_dir, str(d / "ck"), n_ticks=3,
                          interval_s=0, sleep=lambda s: None, on_tick=on_tick,
                          tail_source=TailingSource(str(evdir), str(d / "seen.json")),
                          forecast=kind == "forecast", horizon=4)
        assert n == 3 and all(r is not None and len(r) for r in rows)
        return paths, rows

    def exact(got: pd.DataFrame, want: pd.DataFrame, keys: list[str]) -> None:
        def order(f):
            return f.sort_values(keys, kind="stable").reset_index(drop=True)

        pd.testing.assert_frame_equal(order(got[list(want.columns)]), order(want), check_exact=True)

    paths, rows = ticks("detect")
    exact(pd.concat(rows), detect(rd.read_parquet(paths), cfg).to_pandas(),
          ["model_id", "window_end_ms"])

    paths, rows = ticks("forecast")
    ck = str(tmp_path / "forecast_dataset_ck")
    for path, got in zip(paths, rows):
        exact(got, forecast(rd.read_parquet(path), cfg, horizon=4, checkpoint_dir=ck).to_pandas(),
              ["entity", "horizon_index"])
    assert os.listdir(ck)


def test_tailing_source_poll_commit(tmp_path):
    """TailingSource unit semantics: new files appear in poll(), committed
    files don't, a changed (appended) file reappears, manifest survives
    re-instantiation (crash-restart)."""
    from anomaly_detection_ray.sources.tailing import TailingSource

    d = tmp_path / "in"
    d.mkdir()
    (d / "a.parquet").write_bytes(b"x")
    (d / "_staging.parquet").write_bytes(b"ignored")  # staging prefix skipped
    manifest = str(tmp_path / "seen.json")

    src = TailingSource(str(d), manifest)
    files = src.poll()
    assert files == [str(d / "a.parquet")]
    src.commit(files)
    assert src.poll() == []

    # restart: manifest persists
    src2 = TailingSource(str(d), manifest)
    assert src2.poll() == []

    (d / "b.csv").write_bytes(b"y")
    (d / "a.parquet").write_bytes(b"xz")  # changed size -> wholly re-read
    assert src2.poll() == [str(d / "a.parquet"), str(d / "b.csv")]
    src2.commit(src2.poll())
    assert src2.poll() == []


def test_run_ticks_tailing(ray_session, tmp_path, monkeypatch):
    """Tailing ticks: tick 1 reads part1, tick 2 reads ONLY part2, tick 3
    (no new files) skips the pipeline entirely — and the accumulated
    results equal a single full run."""
    import glob

    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.sources.streams import generate_interval_stream
    from anomaly_detection_ray.sources.tailing import TailingSource
    from anomaly_detection_ray.tick import config_from_json, run_ticks

    t = generate_interval_stream(n_entities=2, n_windows=120, interval_s=600, seed=7,
                                 anomaly_prob=0.02, events_per_window=2)
    ts_ms = t.to_pandas()["ts"].astype("datetime64[ms]").astype("int64")
    cut = int(ts_ms.quantile(0.7))
    evdir = tmp_path / "events"
    evdir.mkdir()
    pq.write_table(t.filter((ts_ms <= cut).to_numpy()), str(evdir / "part1.parquet"))

    cfg = config_from_json({
        "config_id": "tick-tail", "interval_s": 600, "shingle_size": 8,
        "category_fields": ["entity"],
        "features": [{"name": "value_avg", "column": "value", "agg": "avg"}],
        "num_trees": 5, "sample_size": 32,
    })
    api = DetectorAPI(cfg, str(evdir))
    res_dir, ck_dir = str(tmp_path / "res"), str(tmp_path / "ck")
    tail = TailingSource(str(evdir), str(tmp_path / "seen.json"))

    paths_read = []
    orig = api.start_job

    def spy(results_dir, checkpoint_dir):
        paths_read.append(api.events_path)
        return orig(results_dir, checkpoint_dir)

    monkeypatch.setattr(api, "start_job", spy)

    def on_tick(i):
        if i == 1:
            pq.write_table(t.filter((ts_ms > cut).to_numpy()), str(evdir / "part2.parquet"))

    n = run_ticks(api, res_dir, ck_dir, n_ticks=3, interval_s=0,
                  sleep=lambda s: None, on_tick=on_tick, tail_source=tail)
    assert n == 3
    # tick 3 skipped the job; tick 2 read only part2
    assert len(paths_read) == 2
    assert paths_read[0] == [str(evdir / "part1.parquet")]
    assert paths_read[1] == [str(evdir / "part2.parquet")]
    assert api.events_path == str(evdir)  # restored after each tick

    got = pq.read_table(glob.glob(res_dir + "/**/*.parquet", recursive=True)).to_pandas()
    assert not got.duplicated(["model_id", "window_end_ms"]).any()
    full = api.run_once().to_pandas()
    assert len(got) == len(full)
    assert got["window_end_ms"].max() == full["window_end_ms"].max()


def test_gc_results_retention(tmp_path):
    """Result retention GC removes only whole partitions older than the
    cutoff (IndexManagement's old-history cleanup; now_day injected —
    no wall clock)."""
    from anomaly_detection_ray.stages.sink import gc_results

    out = tmp_path / "results"
    for day in (100, 120, 129, 130, 131):
        d = out / f"result_date={day}"
        d.mkdir(parents=True)
        (d / "part-0.parquet").write_bytes(b"x")
    (out / "not_a_partition").mkdir()
    removed = gc_results(str(out), retention_days=30, now_day=160)
    assert removed == [100, 120, 129]
    left = sorted(p.name for p in out.iterdir())
    assert left == ["not_a_partition", "result_date=130", "result_date=131"]
    # idempotent; missing dir is a no-op
    assert gc_results(str(out), 30, 160) == []
    assert gc_results(str(tmp_path / "missing"), 30, 160) == []


def test_run_ticks_with_rollover_and_retention(ray_session, tmp_path):
    """Tick loop composed with the generation-rolled result sink: each
    tick writes into the active generation, min-docs rollover fires
    after the first tick's rows land, and TTL gc drops the rolled-off
    generation once it ages out (IndexManagement.java:1126-1134's
    scheduled rollover-and-delete)."""
    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.sources.streams import generate_interval_stream
    from anomaly_detection_ray.stages.sink import ResultIndexManager
    from anomaly_detection_ray.tick import config_from_json, run_ticks

    t = generate_interval_stream(n_entities=2, n_windows=100, interval_s=600, seed=9,
                                 events_per_window=1)
    df = t.to_pandas()
    ts_ms = df["ts"].astype("datetime64[ms]").astype("int64")
    cut = int(ts_ms.quantile(0.5))
    evdir = tmp_path / "events"
    evdir.mkdir()
    pq.write_table(t.filter((ts_ms <= cut).to_numpy()), str(evdir / "p1.parquet"))
    cfg = config_from_json({
        "config_id": "roll-e2e", "interval_s": 600, "shingle_size": 4,
        "category_fields": ["entity"],
        "features": [{"name": "value_avg", "column": "value", "agg": "avg"}],
        "num_trees": 5, "sample_size": 32,
    })
    api = DetectorAPI(cfg, str(evdir))
    mgr = ResultIndexManager(str(tmp_path / "res"), min_age_days=None, min_docs=1)
    days = iter([100, 200, 300])
    seen = {}

    def on_tick(i):
        # runs AFTER the tick's write + rollover + gc
        seen[i] = (mgr.generations(),
                   {g: mgr.stats(str(tmp_path / "res" / g))["docs"]
                    for g in mgr.generations()})
        if i == 1:
            pq.write_table(t.filter((ts_ms > cut).to_numpy()), str(evdir / "p2.parquet"))

    n = run_ticks(api, str(tmp_path / "res"), str(tmp_path / "ck"), n_ticks=2,
                  interval_s=0, sleep=lambda s: None, on_tick=on_tick,
                  result_manager=mgr, retention_days=30,
                  now_day=lambda: next(days))
    assert n == 2
    # tick 1 (day 100): rows landed in gen-1, min_docs=1 rolled to gen-2,
    # gc kept both (age 0)
    gens1, docs1 = seen[1]
    assert gens1 == ["gen-000001", "gen-000002"]
    assert docs1["gen-000001"] > 0 and docs1["gen-000002"] == 0
    # tick 2 (day 200): rows landed in gen-2, rolled to gen-3, and the
    # TTL gc (30 days) deleted BOTH day-100 generations; the active one
    # never deletes
    gens2, _ = seen[2]
    assert gens2 == ["gen-000003"]
