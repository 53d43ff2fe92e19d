"""ADTask-style task docs: state machine + run_once wiring."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anomaly_detection_ray.state.taskstore import TaskStore


def test_state_machine(tmp_path):
    store = TaskStore(str(tmp_path))
    doc = store.create("det-1", time_range_ms=(0, 1000))
    tid = doc["_id"]
    assert doc["state"] == "CREATED" and doc["seq"] == 0
    # deterministic id: same (config, range) → same task
    assert store.task_id("det-1", (0, 1000)) == tid
    assert store.task_id("det-1", (0, 2000)) != tid
    store.transition(tid, "RUNNING")
    with pytest.raises(ValueError, match="illegal transition"):
        store.transition(tid, "INIT")
    d = store.transition(tid, "FINISHED", n_result_rows=42)
    assert d["state"] == "FINISHED" and d["n_result_rows"] == 42 and d["seq"] == 2
    with pytest.raises(ValueError):
        store.transition(tid, "RUNNING")  # terminal
    # idempotent create: FINISHED stays finished …
    assert store.create("det-1", time_range_ms=(0, 1000))["state"] == "FINISHED"
    # … but a non-finished task resets (the reference restarts those)
    t2 = store.create("det-2")["_id"]
    store.transition(t2, "FAILED", error="boom")
    assert store.create("det-2")["state"] == "CREATED"
    assert [d["_id"] for d in store.list(state="FINISHED")] == [tid]
    assert len(store.list(config_id="det-1")) == 1


def test_run_once_tracks_task(ray_session, tmp_path):
    from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    n = 3000
    tbl = pa.table(
        {
            "ts": pa.array((1_704_067_200_000 + np.arange(n) * 60_000).astype("int64")),
            "event_type": pa.array(["a"] * n),
            "value": pa.array(np.sin(np.arange(n) / 7.0) + 3.0),
        }
    )
    src = str(tmp_path / "events.parquet")
    pq.write_table(tbl, src)
    cfg = DetectorConfig(config_id="task-det", interval_s=600,
                         category_fields=("event_type",),
                         features=(FeatureSpec("value_avg", "value", "avg"),))
    api = DetectorAPI(cfg, src)
    store = TaskStore(str(tmp_path / "tasks"))
    results = str(tmp_path / "results")
    api.run_once(results_dir=results, task_store=store)
    docs = store.list(config_id="task-det")
    assert len(docs) == 1 and docs[0]["state"] == "FINISHED"
    assert docs[0]["n_result_rows"] and docs[0]["n_result_rows"] > 0
    # rerunning a FINISHED task is a no-op returning the doc
    again = api.run_once(results_dir=results, task_store=store)
    assert isinstance(again, dict) and again["state"] == "FINISHED"
    # a failing run lands in FAILED with the error recorded
    bad = DetectorAPI(
        DetectorConfig(config_id="bad-det", interval_s=600,
                       features=(FeatureSpec("nope_avg", "missing_col", "avg"),)),
        src,
    )
    with pytest.raises(Exception):
        bad.run_once(results_dir=str(tmp_path / "r2"), task_store=store)
    fdoc = store.list(config_id="bad-det")[0]
    assert fdoc["state"] == "FAILED" and fdoc["error"]


def test_progress_update_rules(tmp_path):
    store = TaskStore(str(tmp_path))
    tid = store.create("det-p", time_range_ms=(0, 1000))["_id"]
    assert store.get(tid)["task_progress"] == 0.0
    store.transition(tid, "RUNNING")
    d = store.update_progress(tid, task_progress=0.5, init_progress=0.25,
                              current_piece=(0, 500))
    assert d["task_progress"] == 0.5 and d["current_piece"] == [0, 500]
    # monotone: a late lower update can't walk progress backwards
    d = store.update_progress(tid, task_progress=0.3)
    assert d["task_progress"] == 0.5
    # clamped to 1.0
    d = store.update_progress(tid, init_progress=7.0)
    assert d["init_progress"] == 1.0
    store.transition(tid, "FINISHED", n_result_rows=1)
    assert store.get(tid)["task_progress"] == 1.0
    with pytest.raises(ValueError, match="FINISHED"):
        store.update_progress(tid, task_progress=0.9)


class _RecordingStore(TaskStore):
    def __init__(self, root):
        super().__init__(root)
        self.history = []

    def update_progress(self, task_id, **kw):
        doc = super().update_progress(task_id, **kw)
        self.history.append((doc["task_progress"], doc["init_progress"],
                             tuple(doc["current_piece"] or ())))
        return doc


def test_run_once_piecewise_progress(ray_session, tmp_path):
    """A tracked run over an explicit range processes it in pieces and
    advances task_progress/init_progress monotonically to 1.0 at FINISH
    (ADBatchTaskRunner.java:1271-1301 per-piece updates). n_result_rows
    counts THIS run's rows only, even over a shared results_dir."""
    from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    n = 2000
    base = 1_704_067_200_000
    tbl = pa.table(
        {
            "ts": pa.array((base + np.arange(n) * 60_000).astype("int64")),
            "event_type": pa.array(["a"] * n),
            "value": pa.array(np.sin(np.arange(n) / 7.0) + 3.0),
        }
    )
    src = str(tmp_path / "events.parquet")
    pq.write_table(tbl, src)
    cfg = DetectorConfig(config_id="piece-det", interval_s=600,
                         category_fields=("event_type",),
                         features=(FeatureSpec("value_avg", "value", "avg"),))
    api = DetectorAPI(cfg, src)
    store = _RecordingStore(str(tmp_path / "tasks"))
    results = str(tmp_path / "results")
    # 2000 minutes = 200 windows; 100-interval pieces → two chunks
    lo, hi = base, base + n * 60_000
    api.run_once(results_dir=results, task_store=store,
                 time_range_ms=(lo, hi), piece_intervals=100)
    doc = store.list(config_id="piece-det")[0]
    assert doc["state"] == "FINISHED" and doc["task_progress"] == 1.0
    assert doc["n_result_rows"] > 0
    progress = [h[0] for h in store.history]
    assert len(progress) >= 4  # 2 pieces × (marker + after-piece) updates
    assert progress == sorted(progress)  # monotone
    assert progress[-1] == 1.0
    inits = [h[1] for h in store.history]
    assert inits == sorted(inits) and inits[-1] == 1.0
    # written rows match the doc's count exactly (this run only)
    import glob
    import os

    total = sum(pq.read_table(f).num_rows
                for f in glob.glob(os.path.join(results, "**", "*.parquet"), recursive=True))
    assert total == doc["n_result_rows"]
    # a SECOND config appending into the same results_dir still reports
    # only its own rows (the r3 recursive-glob count was cumulative)
    cfg2 = DetectorConfig(config_id="piece-det-2", interval_s=600,
                          category_fields=("event_type",),
                          features=(FeatureSpec("value_avg", "value", "avg"),))
    api2 = DetectorAPI(cfg2, src)
    api2.run_once(results_dir=results, task_store=store, write_mode="append")
    doc2 = store.list(config_id="piece-det-2")[0]
    total2 = sum(pq.read_table(f).num_rows
                 for f in glob.glob(os.path.join(results, "**", "*.parquet"), recursive=True))
    assert doc2["n_result_rows"] == total2 - total


def test_task_profile(ray_session, tmp_path):
    """ADTaskProfileRunner analogue: task doc + model totals from the
    piece-runner's checkpoint store (ADTaskProfile.java fields)."""
    from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    n = 1200
    base = 1_704_067_200_000
    tbl = pa.table(
        {
            "ts": pa.array((base + np.arange(n) * 60_000).astype("int64")),
            "event_type": pa.array(["a", "b"] * (n // 2)),
            "value": pa.array(np.sin(np.arange(n) / 7.0) + 3.0),
        }
    )
    src = str(tmp_path / "events.parquet")
    pq.write_table(tbl, src)
    cfg = DetectorConfig(config_id="prof-det", interval_s=600,
                         category_fields=("event_type",),
                         features=(FeatureSpec("value_avg", "value", "avg"),))
    api = DetectorAPI(cfg, src)
    store = TaskStore(str(tmp_path / "tasks"))
    rng = (base, base + n * 60_000)
    api.run_once(results_dir=str(tmp_path / "res"), task_store=store,
                 time_range_ms=rng, piece_intervals=60)
    prof = api.task_profile(store, time_range_ms=rng)
    assert prof["task"]["state"] == "FINISHED" and prof["task"]["task_progress"] == 1.0
    assert prof["n_models"] == 2           # two entities → two models
    assert prof["total_model_bytes"] > 0
    assert prof["rcf_total_updates"] >= 100  # ~120 windows per entity
    assert prof["shingle_size"] == cfg.shingle_size


def test_failed_piecewise_task_restarts_clean(ray_session, tmp_path, monkeypatch):
    """A crash mid-pieces lands the task in FAILED with the current-piece
    marker set; create() resets it to CREATED (the reference restarts
    non-finished historical tasks from scratch) and the rerun finishes
    with replace-mode results identical to an uninterrupted run."""
    import glob

    import anomaly_detection_ray.pipelines.api as api_mod
    from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    n = 1200
    base = 1_704_067_200_000
    tbl = pa.table(
        {
            "ts": pa.array((base + np.arange(n) * 60_000).astype("int64")),
            "event_type": pa.array(["a"] * n),
            "value": pa.array(np.sin(np.arange(n) / 7.0) + 3.0),
        }
    )
    src = str(tmp_path / "events.parquet")
    pq.write_table(tbl, src)
    cfg = DetectorConfig(config_id="restart-det", interval_s=600,
                         category_fields=("event_type",),
                         features=(FeatureSpec("value_avg", "value", "avg"),))
    api = DetectorAPI(cfg, src)
    store = TaskStore(str(tmp_path / "tasks"))
    results = str(tmp_path / "results")
    rng = (base, base + n * 60_000)

    # each piece is one scoring run whose reducers write its results
    calls = {"n": 0}
    orig = api_mod.DetectorAPI._detect_into

    def flaky(*a, **kw):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("injected piece-2 crash")
        return orig(*a, **kw)

    monkeypatch.setattr(api_mod.DetectorAPI, "_detect_into", flaky)
    with pytest.raises(RuntimeError, match="injected"):
        api.run_once(results_dir=results, task_store=store,
                     time_range_ms=rng, piece_intervals=60)
    tid = store.task_id("restart-det", rng)
    doc = store.get(tid)
    assert doc["state"] == "FAILED" and doc["error"]
    assert doc["current_piece"] is not None  # resume marker for observers
    assert 0 < doc["task_progress"] < 1.0

    # restart: reset to CREATED, rerun FROM SCRATCH (task-private
    # checkpoints + this range's day partitions wiped — the reference
    # restarts non-finished historical tasks rather than resuming)
    monkeypatch.setattr(api_mod.DetectorAPI, "_detect_into", orig)
    api.run_once(results_dir=results, task_store=store,
                 time_range_ms=rng, piece_intervals=60)
    doc = store.get(tid)
    assert doc["state"] == "FINISHED" and doc["task_progress"] == 1.0
    total = sum(pq.read_table(f).num_rows
                for f in glob.glob(results + "/**/*.parquet", recursive=True))
    assert total == doc["n_result_rows"] > 0
    # ...and the restarted run's output equals an uninterrupted run's
    clean = str(tmp_path / "clean")
    api2 = DetectorAPI(cfg, src)
    api2.run_once(results_dir=clean, task_store=TaskStore(str(tmp_path / "t2")),
                  time_range_ms=rng, piece_intervals=60)

    def load(d):
        t = pa.concat_tables(pq.read_table(f) for f in
                             sorted(glob.glob(d + "/**/*.parquet", recursive=True)))
        return (t.to_pandas().sort_values(["model_id", "window_end_ms"])
                .reset_index(drop=True))

    pd.testing.assert_frame_equal(load(results), load(clean))
