"""Layer-B tests: RCF, thresholder, imputation, end-to-end detection.

Quality floors mirror the reference's e2e assertion
(`SingleStreamModelPerfIT.java:47-53`: precision ≥ 0.4, window recall
≥ 0.7 on labeled synthetic data) plus exact determinism (preview's
randomSeed(0) promise)."""

import dataclasses

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
from anomaly_detection_ray.functions.imputation import (
    batch_shingle,
    fill_missing,
    linear_uniform_impute,
    shingle_fill_nearest,
)
from anomaly_detection_ray.state.checkpoint import CheckpointStore
from anomaly_detection_ray.state.model import TRCFModel
from anomaly_detection_ray.state.rcf import RCForest
from anomaly_detection_ray.state.threshold import ThresholdModel


# ---------- imputation (goldens vs LinearUniformImputer.java) ----------

def test_linear_uniform_impute_matches_reference_semantics():
    # n=1 → constant fill
    assert np.allclose(linear_uniform_impute([[2.0]], 4), [[2.0]] * 4)
    # stretch 2→5: endpoints pinned, linear between
    out = linear_uniform_impute([[0.0], [4.0]], 5)
    assert np.allclose(out.ravel(), [0, 1, 2, 3, 4])
    # integer-sensitive rounding (IntegerSensitiveLinearUniformImputerTests)
    out = linear_uniform_impute([[0.0], [3.0]], 4, integer_sensitive=True)
    assert np.array_equal(out.ravel(), np.rint(np.asarray([0, 1, 2, 3.0])))
    # multi-feature stretch 3→5
    out = linear_uniform_impute([[0.0, 10.0], [2.0, 20.0], [4.0, 30.0]], 5)
    assert np.allclose(out[:, 0], [0, 1, 2, 3, 4])
    assert np.allclose(out[:, 1], [10, 15, 20, 25, 30])


def test_fill_missing_policies():
    v = np.array([[1.0], [np.nan], [3.0]])
    assert np.allclose(fill_missing(v, "zero")[1], 0.0)
    assert np.allclose(fill_missing(v, "fixed", 9.0)[1], 9.0)
    assert np.allclose(fill_missing(v, "previous")[1], 1.0)
    assert np.allclose(fill_missing(v, "linear")[1], 2.0)


def test_batch_shingle_shape():
    pts = np.arange(10, dtype=float).reshape(5, 2)
    sh = batch_shingle(pts, 3)
    assert sh.shape == (3, 6)
    assert np.allclose(sh[0], [0, 1, 2, 3, 4, 5])


def test_shingle_fill_nearest():
    w = [np.array([1.0]), None, np.array([3.0]), np.array([4.0])]
    filled = shingle_fill_nearest(w, max_missing_rate=0.26, max_neighbor_distance=2)
    assert filled is not None and filled[1] == 3.0  # tie dist=1 → ceiling neighbor
    # too many missing → None
    assert shingle_fill_nearest([None, None, np.array([1.0]), None]) is None


# ---------- RCF ----------

def test_forest_build_invariants():
    """Every tree's root mass equals the sample size; leaf masses sum to
    it; bboxes nest (child within parent)."""
    rng = np.random.default_rng(0)
    f = RCForest(num_trees=8, sample_size=64, seed=1)
    for p in rng.normal(size=(200, 3)):
        f.observe(p)
    assert f._built and f._built_size == 64
    for r in f._roots:
        assert f._count[r] == 64
    leaf = f._left < 0
    assert f._count[leaf].sum() == 8 * 64
    internal = np.flatnonzero(~leaf)
    for n in internal[:200]:
        for ch in (f._left[n], f._right[n]):
            assert (f._lo[ch] >= f._lo[n] - 1e-12).all()
            assert (f._hi[ch] <= f._hi[n] + 1e-12).all()
        assert f._count[n] == f._count[f._left[n]] + f._count[f._right[n]]


def test_reservoir_time_decay_semantics():
    """The time-decayed reservoir (λ = time_decay) keeps a recency-biased
    sample with mean age ≈ 1/λ — retaining points older than the sample
    size (impossible for round-1's sliding window) while still turning
    over after a regime change."""
    f = RCForest(num_trees=1, sample_size=128, seed=0, time_decay=1 / 1024)
    n = 10_000
    for i in range(n):
        f.observe(np.array([float(i % 7)]))
    ages = n - np.asarray(sorted(f._res))
    assert ages.max() > 128            # older than any sliding window
    assert 300 < ages.mean() < 3000    # ≈ 1/λ = 1024
    # regime change: after 2·(1/λ) more points, most of the sample is new
    for i in range(n, n + 2048):
        f.observe(np.array([100.0]))
    frac_new = np.mean(np.asarray(sorted(f._res)) >= n)
    assert frac_new > 0.5
    # λ=0 → uniform reservoir over the whole stream (no recency bias)
    g = RCForest(num_trees=1, sample_size=128, seed=0, time_decay=0.0)
    for i in range(n):
        g.observe(np.array([float(i)]))
    assert np.mean(n - np.asarray(sorted(g._res))) > n / 4


def test_batch_scoring_identical_to_per_point():
    """score_then_observe_batch must be bit-identical to per-point
    score_and_update regardless of batch split (the chunk boundaries are
    the absolute rebuild schedule, not call boundaries)."""
    pts = np.random.default_rng(5).normal(size=(300, 4))
    f1, f2, f3 = (RCForest(10, 64, seed=1) for _ in range(3))
    a = np.asarray([f1.score_and_update(p) for p in pts])
    b = f2.score_then_observe_batch(pts)
    c = np.concatenate([f3.score_then_observe_batch(pts[:50]),
                        f3.score_then_observe_batch(pts[50:57]),
                        f3.score_then_observe_batch(pts[57:])])
    assert np.array_equal(a, b) and np.array_equal(a, c)


def test_forest_scores_spike_higher():
    rng = np.random.default_rng(3)
    f = RCForest(num_trees=20, sample_size=128, seed=7)
    normal_scores, spike_score = [], None
    for i in range(300):
        x = np.array([np.cos(i / 8.0), np.sin(i / 8.0)])
        normal_scores.append(f.score_and_update(x))
    spike_score = f.score_and_update(np.array([25.0, -25.0]))
    assert spike_score > 3 * np.mean(normal_scores[-50:])


def test_forest_deterministic():
    pts = np.random.default_rng(5).normal(size=(100, 2))
    s1 = [RCForest(10, 64, seed=1).score_and_update for _ in range(1)][0]
    f1, f2 = RCForest(10, 64, seed=1), RCForest(10, 64, seed=1)
    a = [f1.score_and_update(p) for p in pts]
    b = [f2.score_and_update(p) for p in pts]
    assert a == b


# ---------- thresholder ----------

def test_threshold_grade_semantics():
    m = ThresholdModel(min_score=0.4, p=0.995)
    for s in np.linspace(0.5, 1.0, 1000):
        m.update(s)
    assert m.grade(0.3) == 0.0          # below MIN_SCORE
    assert m.grade(0.6) == 0.0          # low rank
    assert m.grade(2.0) == pytest.approx(1.0)  # above everything
    assert 0.0 < m.grade(0.9999) <= 1.0 or m.grade(0.9999) == 0.0
    assert m.confidence() == 0.99


def test_threshold_downsample_deterministic():
    m1, m2 = ThresholdModel(max_size=100), ThresholdModel(max_size=100)
    for s in np.linspace(0, 1, 1000):
        m1.update(s)
        m2.update(s)
    assert m1.rank(0.5) == m2.rank(0.5)
    m1._flush()
    assert m1._sorted.size <= 200


# ---------- model + checkpoint ----------

def _run_stream(model, n=120, spike_at=(100,), seed=11):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        v = 100 + 50 * np.cos(2 * np.pi * i / 24) + rng.uniform(-2, 2)
        if i in spike_at:
            v *= 5
        r = model.process(np.array([v]), (i + 1) * 600_000)
        out.append(r)
    return out


def test_model_detects_spike_and_orders():
    cfg = DetectorConfig(config_id="d1", interval_s=600, shingle_size=8,
                         features=(FeatureSpec("f0", "value", "avg"),), num_trees=20, sample_size=128)
    m = TRCFModel(cfg, "d1_model")
    out = _run_stream(m, 120, spike_at=(100,))
    scores = [r["anomaly_score"] for r in out]
    assert max(scores[:31]) == 0.0  # warm-up (first output_after−1 points) emits zero scores
    # the spike dominates: every top-6 score sits inside the spike's
    # shingle window [100, 100+s), and the spike window itself scores
    # far above the post-warm-up median (post-spike shingles contain the
    # spike, so they legitimately score comparably high)
    arr = np.asarray(scores)
    top6 = np.argsort(-arr)[:6]
    assert all(100 <= i < 100 + 8 for i in top6), top6
    assert arr[100] > 4 * np.median(arr[32:])
    # out-of-order drop
    assert m.process(np.array([1.0]), 600_000) is None
    assert m.n_dropped_ooo == 1


def test_model_gap_reset_and_impute():
    cfg = DetectorConfig(config_id="d1", features=(FeatureSpec("f0", "value", "avg"),),
                         num_trees=5, sample_size=32)
    m = TRCFModel(cfg, "x")
    m.process(np.array([1.0]), 600_000)
    m.process(np.array([1.0]), 600_000 * 5)  # gap of 3 → imputed internally
    assert m.n_points == 1 + 3 + 1
    m.process(np.array([1.0]), 600_000 * 20_000)  # giant gap → reset
    assert m.n_points == 1


def test_checkpoint_roundtrip_identical_scoring(tmp_path):
    """FIXTURES.md F5 checkpoint_roundtrip: serialize → restore →
    identical scores on the next windows (analogue of the reference's
    golden checkpoint BWC tests)."""
    cfg = DetectorConfig(config_id="d1", features=(FeatureSpec("f0", "value", "avg"),),
                         num_trees=10, sample_size=64)
    m = TRCFModel(cfg, "m1")
    _run_stream(m, 80)
    store = CheckpointStore(str(tmp_path))
    meta = store.save(m)
    assert meta["n_points"] == 80 and len(meta["sha256"]) == 64
    m2 = store.load("m1")
    cont1 = [m.process(np.array([500.0 + i]), (81 + i) * 600_000) for i in range(10)]
    cont2 = [m2.process(np.array([500.0 + i]), (81 + i) * 600_000) for i in range(10)]
    assert [r["anomaly_score"] for r in cont1] == [r["anomaly_score"] for r in cont2]


# ---------- end-to-end detector pipeline ----------

@pytest.fixture(scope="module")
def stream_table():
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    return generate_interval_stream(
        n_entities=8, n_windows=300, interval_s=600, seed=42,
        anomaly_prob=0.01, spike_factor=5.0, events_per_window=2,
    )


def _detector_cfg():
    return DetectorConfig(
        config_id="det-e2e",
        interval_s=600,
        shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),),
        category_fields=("entity",),
        num_trees=20,
        sample_size=128,
    )


def test_detect_end_to_end_quality(ray_session, stream_table):
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect

    cfg = _detector_cfg()
    ds = rd.from_arrow(stream_table)
    res = detect(ds, cfg, ts_col="ts").to_pandas()
    assert {"model_id", "anomaly_score", "anomaly_grade", "window_end_ms"} <= set(res.columns)

    truth = stream_table.to_pandas()
    ts_ms = truth["ts"].astype("datetime64[ms]").astype("int64")
    truth["window_end_ms"] = ts_ms // 600_000 * 600_000 + 600_000
    label = truth.groupby(["entity", "window_end_ms"])["is_anomaly_truth"].any().reset_index()
    spikes = label[label["is_anomaly_truth"]]
    assert len(spikes) > 0
    res = res[res["anomaly_score"] > 0]  # past warm-up
    flagged = res[res["anomaly_grade"] > 0]

    # window-tolerant evaluation, like the reference's labeled anomaly
    # WINDOWS (`SingleStreamModelPerfIT.java:107-135`): a flag is a true
    # positive if within `shingle_size` windows after a labeled spike
    # (post-spike shingles legitimately contain the anomaly); a spike is
    # recalled if any flag lands within 2 windows of it.
    w = 600_000
    tol = cfg.shingle_size * w

    def near(row, within):
        s = spikes[spikes["entity"] == row["entity"]]
        return bool(((row["window_end_ms"] - s["window_end_ms"]).between(0, within)).any())

    tp = flagged.apply(lambda r: near(r, tol), axis=1)
    precision = tp.mean() if len(flagged) else 0.0
    recalled = spikes.apply(
        lambda s: bool(
            (
                (flagged["entity"] == s["entity"])
                & (flagged["window_end_ms"] - s["window_end_ms"]).between(0, 2 * w)
            ).any()
        ),
        axis=1,
    )
    recall = recalled.mean()
    assert precision >= 0.4, f"precision {precision}"
    assert recall >= 0.7, f"recall {recall}"


def test_detect_quality_independent_labeled_fixture(ray_session):
    """Detector quality on a labeled series family the training/spike
    generator (``sources.streams.generate_interval_stream`` — cosine +
    multiplicative spikes) NEVER produces: two superimposed seasonal
    periods (24 and 168 windows) + linear trend + additive point
    anomalies of alternating sign + a CONTEXTUAL anomaly (the value of
    the opposite seasonal phase — globally in-range, wrong for its
    position) + a persistent level shift. Floors are the reference's own
    labeled-data gates (``SingleStreamModelPerfIT.java:47-53``:
    precision ≥ 0.4, window-tolerant recall ≥ 0.7). Deterministic from
    the fixed seed — detect() itself is seeded from config.seed ⊕
    murmur3(model_id)."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect

    W = 600_000
    T0 = 1704067200000
    n_windows, mag = 900, 300.0
    rng = np.random.default_rng(7)
    frames, labels = [], []
    for e in range(3):
        i = np.arange(n_windows, dtype=np.float64)
        phase = rng.uniform(0, 2 * np.pi)
        vals = (500.0 + 0.05 * i
                + 80.0 * np.sin(2 * np.pi * i / 24 + phase)
                + 40.0 * np.sin(2 * np.pi * i / 168 + phase / 2)
                + rng.normal(0, 3.0, n_windows))
        lab = np.zeros(n_windows, dtype=bool)
        pts = rng.choice(np.arange(350, n_windows - 40), size=8, replace=False)
        pts.sort()
        keep = [pts[0]]  # ≥30 windows apart so label windows never merge
        for p in pts[1:]:
            if p - keep[-1] >= 30:
                keep.append(p)
        for k, p in enumerate(keep):
            vals[p] += mag if k % 2 == 0 else -mag
            lab[p] = True
        c = int(keep[0] + 15)  # contextual: phase-opposite, globally in-range
        vals[c] = (500.0 + 0.05 * c
                   + 80.0 * np.sin(2 * np.pi * c / 24 + phase + np.pi)
                   + 40.0 * np.sin(2 * np.pi * c / 168 + phase / 2 + np.pi))
        lab[c] = True
        s = int(keep[-1] + 20)  # level shift, labeled at the shift window
        vals[s:] += 70.0
        lab[s] = True
        ts = T0 + (np.arange(n_windows, dtype=np.int64) + 1) * W
        frames.append(pd.DataFrame({"entity": f"ent{e}", "ts": ts, "value": vals}))
        labels.append(pd.DataFrame({"entity": f"ent{e}", "window_end_ms": ts, "truth": lab}))
    ev = pd.concat(frames, ignore_index=True)
    ev["ts"] = ev["ts"].astype("datetime64[ms]")
    spikes = pd.concat(labels, ignore_index=True)
    spikes = spikes[spikes["truth"]]
    tbl = pa.Table.from_pandas(ev, preserve_index=False)

    cfg = _detector_cfg()
    res = detect(rd.from_arrow(tbl), cfg, ts_col="ts").to_pandas()
    res = res[res["anomaly_score"] > 0]
    flagged = res[res["anomaly_grade"] > 0]
    tol = cfg.shingle_size * W

    def near(row, within):
        s = spikes[spikes["entity"] == row["entity"]]
        return bool(((row["window_end_ms"] - s["window_end_ms"]).between(0, within)).any())

    tp = flagged.apply(lambda r: near(r, tol), axis=1)
    precision = tp.mean() if len(flagged) else 0.0
    recalled = spikes.apply(
        lambda s: bool(((flagged["entity"] == s["entity"])
                        & (flagged["window_end_ms"] - s["window_end_ms"]).between(0, 2 * W)).any()),
        axis=1,
    )
    recall = recalled.mean()
    assert precision >= 0.4, f"precision {precision}"
    assert recall >= 0.7, f"recall {recall}"


def test_detect_deterministic(ray_session, stream_table):
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect

    cfg = _detector_cfg()
    sort_cols = ["model_id", "window_end_ms"]
    a = detect(rd.from_arrow(stream_table), cfg, ts_col="ts").to_pandas().sort_values(sort_cols).reset_index(drop=True)
    b = detect(rd.from_arrow(stream_table), cfg, ts_col="ts").to_pandas().sort_values(sort_cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def _frame(ds) -> pa.Table:
    return pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)


def _score_input(table: pa.Table, cfg: DetectorConfig) -> pa.Table:
    """detect()'s scoring-stage input rows, the map-side window
    partials, collected as ONE Arrow table."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import _add_model_id
    from anomaly_detection_ray.stages.window import partial_window_aggregate

    t = _frame(partial_window_aggregate(rd.from_arrow(table), cfg, ts_col="ts"))
    return _add_model_id(t, cfg)


def _sorted(df: pd.DataFrame, key: list[str]) -> pd.DataFrame:
    return df.sort_values(key).reset_index(drop=True)[sorted(df.columns)]


def _forced_parts(monkeypatch):
    """Force the per-entity exchange to P > 1 parts whatever the
    session's CPU count: the fixture's 100-250 KB of map-side rows at
    40 KB a part."""
    from anomaly_detection_ray.stages import exchange

    monkeypatch.setattr(exchange, "PART_BYTES", 40 << 10)


def test_exchange_parts_fill_whole_cpu_waves(ray_session, monkeypatch):
    """P is the smallest multiple of the session's CPUs whose parts hold
    ≤ ``PART_BYTES``: map-side bytes worth CPUs + 1 parts give two full
    waves, not a lone last part that doubles the stage's wall time. Each
    key's rows reach one part, none lost."""
    import ray
    import ray.data as rd

    from anomaly_detection_ray.stages import exchange

    tbl = pa.table({"k": [f"e{i % 300}" for i in range(3000)], "v": np.arange(3000.0)})
    ds = rd.from_arrow(tbl)
    cpus = int(ray.cluster_resources()["CPU"])
    nbytes = sum(b.size_bytes() for b in ds.iter_internal_ref_bundles())
    used, real = [], exchange.exchange

    def spy(inputs, split, split_arg, n_parts, *rest):
        used.append(n_parts)
        return real(inputs, split, split_arg, n_parts, *rest)

    monkeypatch.setattr(exchange, "exchange", spy)
    monkeypatch.setattr(exchange, "PART_BYTES", -(-nbytes // (cpus + 1)))
    parts = ray.get(exchange.exchange_by_key(ds, lambda t: t, ["k"], lambda df: df,
                                               lambda: tbl.slice(0, 0)))
    assert used == [2 * cpus]
    keys = [set(p["k"].to_pylist()) for p in parts]
    assert sum(map(len, keys)) == len(set().union(*keys)) == 300
    assert sorted(pa.concat_tables(parts)["v"].to_pylist()) == tbl["v"].to_pylist()


def test_file_ranges_equal_dataset_path(ray_session, tmp_path, monkeypatch):
    """A file source is read in ranges of whole row groups inside the
    split tasks: with the read-block bytes forced small, each of two
    files splits into ≥ 2 ranges and the exchange into ≥ 2 parts, and
    ``detect`` and ``forecast`` over the files equal the same stages
    over ``read_parquet`` of them, exactly. Row groups hold whole
    windows, so every (entity, window) partial sums the same rows in
    both."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from anomaly_detection_ray.index import build
    from anomaly_detection_ray.pipelines.detector import detect, needed_columns
    from anomaly_detection_ray.pipelines.forecast import forecast
    from anomaly_detection_ray.stages import exchange

    n_ent, n_win, per = 6, 60, 2  # entities, windows, events per (entity, window)
    w = np.repeat(np.arange(n_win), n_ent * per)
    e = np.tile(np.repeat(np.arange(n_ent), per), n_win)
    j = np.tile(np.arange(per), n_win * n_ent)
    tbl = pa.table({"ts": pa.array(1_700_000_400_000 + w * 600_000 + j * 60_000, pa.int64()),
                    "entity": pa.array([f"e{i}" for i in e]),
                    "value": np.sin(w / 5.0 + e) + 0.01 * j + e})
    paths = []
    for k, (lo, hi) in enumerate([(0, 30), (30, n_win)]):
        paths.append(str(tmp_path / f"part{k}.parquet"))
        rows = np.flatnonzero((w >= lo) & (w < hi))
        pq.write_table(tbl.take(rows), paths[-1], row_group_size=5 * n_ent * per)
    file_bytes = sum(map(sum, exchange.row_group_bytes(paths)))
    monkeypatch.setattr(build, "READ_BLOCK_BYTES", -(-file_bytes // 5))
    used, real = [], exchange.exchange

    def spy(inputs, split, split_arg, n_parts, *rest):
        used.append((list(inputs), n_parts))
        return real(inputs, split, split_arg, n_parts, *rest)

    monkeypatch.setattr(exchange, "exchange", spy)
    cfg = _detector_cfg()
    files = exchange.ParquetFiles(tuple(paths), tuple(needed_columns(cfg)))

    def frame(ds, keys):
        return ds.to_pandas().sort_values(keys, kind="stable").reset_index(drop=True)

    for run, keys in ((lambda src: detect(src, cfg), ["model_id", "window_end_ms"]),
                      (lambda src: forecast(src, cfg, horizon=4), ["entity", "horizon_index"])):
        got = frame(run(files), keys)
        ranges, n_parts = used[-1]
        assert all(sum(r[0] == p for r in ranges) >= 2 for p in paths) and n_parts >= 2
        want = frame(run(rd.read_parquet(paths)), keys)
        assert len(got) > 0
        pd.testing.assert_frame_equal(got, want, check_exact=True)


def _part_tables(ds) -> list[pa.Table]:
    """The result's blocks: one per exchange part."""
    import ray

    return [ray.get(r) for r in ds.to_arrow_refs()]


def test_detect_coarse_plan_bit_identical(ray_session, stream_table, monkeypatch):
    """The per-model scoring exchange (hash(model_id) % P parts, many
    models per part) is a pure plan change: detect() with P forced ≥ 2
    equals the same stage scoring the whole input as ONE group
    in-process, for mergeable and exact-percentile features. The fixture
    really spreads the models over several parts and puts several models
    in one part."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.stages.scorer import ScoreGroups

    _forced_parts(monkeypatch)
    cfg = _detector_cfg()
    pct = dataclasses.replace(
        cfg, features=(FeatureSpec("value_p90", "value", "percentile", percentile=0.9),))
    key = ["model_id", "window_end_ms"]
    for c in (cfg, pct):
        res = detect(rd.from_arrow(stream_table), c, ts_col="ts")
        models = [set(t["model_id"].to_pylist()) for t in _part_tables(res)]
        assert sum(1 for m in models if m) >= 2 and max(map(len, models)) >= 2
        got = _sorted(res.to_pandas(), key)
        assert got["model_id"].nunique() == 8
        whole = ScoreGroups(c)(_score_input(stream_table, c)).to_pandas()
        pd.testing.assert_frame_equal(got, _sorted(whole, key))


def test_forecast_coarse_plan_bit_identical(ray_session, stream_table, monkeypatch):
    """forecast() over the per-entity exchange, P forced ≥ 2, equals the
    same stage forecasting the whole input as ONE group in-process."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.forecast import ForecastGroups, forecast
    from anomaly_detection_ray.stages.window import partial_window_aggregate

    _forced_parts(monkeypatch)
    cfg = _detector_cfg()
    key = ["entity", "horizon_index"]
    res = forecast(rd.from_arrow(stream_table), cfg, horizon=6)
    entities = [set(t["entity"].to_pylist()) for t in _part_tables(res)]
    assert sum(1 for e in entities if e) >= 2 and max(map(len, entities)) >= 2
    got = res.to_pandas()
    stage = ForecastGroups(
        value_col="value_avg", interval_ms=600_000, horizon=6, period=0,
        entity_cols=("entity",), config=cfg, output_after=cfg.model_output_after(),
        config_id=cfg.config_id, seed=cfg.seed,
    )
    part = _frame(partial_window_aggregate(rd.from_arrow(stream_table), cfg, ts_col="ts"))
    whole = stage(part).to_pandas()
    assert got["entity"].nunique() == 8 and len(got) == 8 * 6
    pd.testing.assert_frame_equal(_sorted(got, key), _sorted(whole, key))


def test_forecast_empty_keeps_result_schema(ray_session):
    """No entity reaches ``output_after`` points: the forecast stage
    still emits its result columns (entity, horizon, forecast bounds,
    confidence, window bounds), and top_forecast_results runs over the
    empty rows. (Ray's ``to_pandas`` skips zero-row blocks, so the
    columns show in the Dataset schema.)"""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.forecast import forecast, top_forecast_results
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=3, n_windows=10, interval_s=600, seed=3)
    cfg = _detector_cfg()
    fc = forecast(rd.from_arrow(t), cfg, horizon=6).materialize()
    assert fc.count() == 0
    assert fc.schema() is not None and set(fc.schema().names) == {
        "entity", "horizon_index", "forecast_window_start_ms", "forecast_window_end_ms",
        "forecast_value", "forecast_lower", "forecast_upper", "confidence",
    }
    # every part's block, with or without an entity, has that schema
    blocks = _part_tables(fc)
    assert len(blocks) >= 1 and all(b.schema == fc.schema().base_schema for b in blocks)
    assert len(top_forecast_results(fc, cfg, k=3)) == 0


def test_empty_input_keeps_result_schema(ray_session, stream_table):
    """detect() and forecast() over an input with no rows return the
    schema a populated run returns (Ray Data turns a row-less input into
    column-less blocks, so the map side alone carries no type)."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.pipelines.forecast import forecast

    cfg = _detector_cfg()
    pct = dataclasses.replace(
        cfg, features=(FeatureSpec("value_p90", "value", "percentile", percentile=0.9),))
    empty = stream_table.slice(0, 0)
    for c in (cfg, pct):
        full = detect(rd.from_arrow(stream_table), c, ts_col="ts")
        none = detect(rd.from_arrow(empty), c, ts_col="ts")
        assert none.count() == 0 and none.schema() == full.schema()
    full = forecast(rd.from_arrow(stream_table), cfg, horizon=6)
    none = forecast(rd.from_arrow(empty), cfg, horizon=6)
    assert none.count() == 0 and none.schema() == full.schema()


def test_empty_stage_results_are_typed_arrow(ray_session, tmp_path, caplog, monkeypatch):
    """A scoring group that emits nothing (a replay of windows its
    checkpoints already hold) and a forecast group with too few points:
    each stage returns a zero-row Arrow table with typed columns, which
    Ray sizes without logging an error (a zero-row pandas frame's object
    column does not size, and converts to ``null``). A detect() part
    that holds no model returns the populated parts' schema, detailed
    and rule columns included."""
    import logging

    import ray.data as rd

    from anomaly_detection_ray.functions.rules import Rule
    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.stages import exchange

    from ray.data.block import BlockAccessor

    from anomaly_detection_ray.pipelines.forecast import ForecastGroups
    from anomaly_detection_ray.sources.streams import generate_interval_stream
    from anomaly_detection_ray.stages.scorer import ScoreGroups

    cfg = _detector_cfg()
    t = generate_interval_stream(n_entities=3, n_windows=6, interval_s=600, seed=3)
    group = _score_input(t, cfg)
    kw = dict(config=cfg, checkpoint_dir=str(tmp_path / "ckpt"))
    assert len(ScoreGroups(**kw)(group)) == 18
    scored = ScoreGroups(**kw)(group)
    forecasts = ForecastGroups(
        value_col="value_avg", interval_ms=600_000, horizon=6, period=0,
        entity_cols=("entity",), config=cfg, output_after=cfg.model_output_after(),
        config_id=cfg.config_id,
    )(group.drop_columns(["model_id"]))
    ray_data_log = logging.getLogger("ray.data")
    ray_data_log.addHandler(caplog.handler)
    try:
        with caplog.at_level(logging.WARNING, logger="ray.data"):
            for out in (scored, forecasts):
                assert isinstance(out, pa.Table) and out.num_rows == 0
                BlockAccessor.for_block(out).size_bytes()
    finally:
        ray_data_log.removeHandler(caplog.handler)
    assert "Error calculating size" not in caplog.text
    s = scored.schema
    assert s.field("entity").type == s.field("model_id").type == pa.string()
    assert s.field("anomaly_score").type == pa.float64() and s.field("is_anomaly").type == pa.bool_()
    assert s.field("window_start_ms").type == pa.int64()
    f = forecasts.schema
    assert f.field("entity").type == pa.string() and f.field("horizon_index").type == pa.int64()
    assert f.field("forecast_value").type == pa.float64()
    # more parts than models (the map side is ~1 KB), so one part is empty
    monkeypatch.setattr(exchange, "PART_BYTES", 1 << 10)
    rules = dataclasses.replace(cfg, rules=(Rule("value_avg", "actual_over_expected_margin", 5.0),))
    blocks = _part_tables(detect(rd.from_arrow(t), rules, detailed=True))
    assert min(b.num_rows for b in blocks) == 0 < max(b.num_rows for b in blocks)
    full = next(b for b in blocks if b.num_rows).schema
    assert {"value_avg_expected", "value_avg_attribution", "value_avg_past",
            "suppressed_by_rule"} <= set(full.names)
    assert all(b.schema == full for b in blocks)


def test_empty_detect_and_forecast_oracle_frames(ray_session, tmp_path):
    """An events file that emits no window: the ``detect_anomalies``,
    ``forecast_events``, window-aggregation and ranking query frames come
    back empty with their result columns, not a ``KeyError`` from sorting
    a 0×0 frame (Ray's ``to_pandas`` skips zero-row blocks); the interval
    suggestion and the time range give one row of NaN / nulls."""
    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines import queries as q
    from anomaly_detection_ray.pipelines.queries import (
        q_detect_anomalies,
        q_detect_hc,
        q_forecast_events,
    )

    pq.write_table(pa.table({
        "event_id": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "user_id": pa.array([], pa.int64()),
        "event_type": pa.array([], pa.string()),
        "value": pa.array([], pa.float64()),
        "props": pa.array([], pa.string()),
    }), str(tmp_path / "events.parquet"))
    det = q_detect_anomalies(str(tmp_path))
    assert len(det) == 0
    assert list(det.columns) == [
        "event_type", "window_start_ms", "window_end_ms", "value_avg", "model_id",
        "anomaly_score", "anomaly_grade", "confidence", "is_anomaly"]
    fc = q_forecast_events(str(tmp_path))
    assert len(fc) == 0 and {"event_type", "horizon_index"} <= set(fc.columns)
    # a mapped input (the user bucket) that saw no rows has no schema of
    # its own; the result still has its columns
    hc = q_detect_hc(str(tmp_path))
    assert len(hc) == 0 and list(hc.columns) == [
        "event_type", "user_bucket", "window_end_ms", "value_avg", "value_max",
        "anomaly_score", "anomaly_grade"]
    win = ["event_type", "window_start_ms", "window_end_ms"]
    one_row = (q.q_interval_suggest, q.q_min_max_time)  # DuckDB's answer: one row of NaN / nulls
    for query, cols in [
        (q.q_feature_agg_interval, [*win, "f_min", "f_max", "f_sum", "f_avg", "f_count"]),
        (q.q_calendar_week_agg, ["event_type", "window_start_ms", "f_sum", "f_count"]),
        (q.q_feature_agg_filtered, [*win, "f_avg", "f_count"]),
        (q.q_date_range_agg, ["range_idx", "f_avg", "f_count"]),
        (q.q_impute_linear, ["event_type", "window_start_ms", "value_imputed"]),
        (q.q_shingle_density, ["event_type", "n_full_shingles"]),
        (q.q_entity_cardinality, ["event_type", "n_users"]),
        (q.q_entity_cardinality_hll, ["event_type", "n_users"]),
        (q.q_value_percentile_tdigest, ["event_type", "p50"]),
        (q.q_top_entities, ["user_id", "cnt"]),
        (q.q_decayed_top_entities, ["user_id", "priority"]),
        (q.q_value_percentile, ["event_type", "p50"]),
        (q.q_top_anomaly_results, ["event_type", "max_anomaly_grade"]),
        (q.q_interval_suggest, ["median_gap_ms"]),
        (q.q_min_max_time, ["min_ts_ms", "max_ts_ms"]),
    ]:
        out = query(str(tmp_path))
        rows = 1 if query in one_row else 0
        assert len(out) == rows and list(out.columns) == cols, query.__name__
        assert out.isna().all().all(), query.__name__
    # two hourly windows: too few for a forecast, so the empty frame
    # carries the stage's own result columns
    pq.write_table(pa.table({
        "event_id": pa.array([0, 1], pa.int64()),
        "ts": pa.array(np.array(["2024-01-01T00:10", "2024-01-01T01:10"],
                                dtype="datetime64[us]")),
        "user_id": pa.array([1, 2], pa.int64()),
        "event_type": ["error", "signup"],
        "value": [1.0, 2.0],
        "props": ["{}", "{}"],
    }), str(tmp_path / "events.parquet"))
    fc = q_forecast_events(str(tmp_path))
    assert len(fc) == 0
    assert {"event_type", "horizon_index", "forecast_value", "confidence"} <= set(fc.columns)


def _plan_ops(ds):
    """Every operator of a Dataset's logical plan."""
    out, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        out.append(op)
        todo.extend(op.input_dependencies)
    return out


def test_no_actor_pool_in_detect_or_forecast_plans(ray_session, stream_table, monkeypatch):
    """The scoring and forecasting stages keep no state past one call,
    so they run as plain tasks in the session's warm workers: no map
    operator of a detect or forecast plan — the source handed to the
    per-entity exchange, nor the returned result — starts an actor pool
    (a fresh process per run). No plan runs a sort shuffle: no ``Sort``
    or ``MapGroups`` operator is left in them, exact percentile included;
    every map side (the function the exchange's split tasks run)
    computes window partials."""
    import ray.data as rd
    from ray.data import ActorPoolStrategy
    from ray.data._internal.logical.operators.map_operator import AbstractMap

    from anomaly_detection_ray.pipelines import detector
    from anomaly_detection_ray.pipelines import forecast as forecast_mod

    map_sides = []

    def spy(real):
        def exchange_by_key(ds, fn, *args):
            map_sides.append((ds, fn))
            return real(ds, fn, *args)
        return exchange_by_key

    for mod in (detector, forecast_mod):
        monkeypatch.setattr(mod, "exchange_by_key", spy(mod.exchange_by_key))
    cfg = _detector_cfg()
    pct = dataclasses.replace(
        cfg, features=(FeatureSpec("value_p90", "value", "percentile", percentile=0.9),))
    ts = pd.to_datetime(stream_table["ts"].to_pandas()).astype("int64") // 10**6
    mid = int(ts.median()) // 600_000 * 600_000
    plans = [
        detector.detect(rd.from_arrow(stream_table), cfg, ts_col="ts"),
        detector.detect(rd.from_arrow(stream_table), pct, ts_col="ts"),
        detector.detect(rd.from_arrow(stream_table), cfg, ts_col="ts",
                        time_range_ms=(mid, int(ts.max()) + 600_000)),
        forecast_mod.forecast(rd.from_arrow(stream_table), cfg, horizon=6),
    ]
    assert len(map_sides) == len(plans)
    for result, (source, map_side) in zip(plans, map_sides):
        for ds in (source, result):
            ops = _plan_ops(ds)
            pools = [op.name for op in ops
                     if isinstance(op, AbstractMap) and isinstance(op._compute, ActorPoolStrategy)]
            assert pools == [], pools
            shuffles = [op.name for op in ops
                        if type(op).__name__ == "Sort" or "MapGroups" in op.name]
            assert shuffles == [], shuffles
        assert any(c.endswith(("__sum", "__list")) for c in map_side(stream_table).column_names)


def _ranked(frame: pd.DataFrame, value: str, keys: list[str], k: int,
            ascending: bool = False) -> pd.DataFrame:
    """pandas' top k: ``value`` first, then the keys ascending."""
    return (frame.sort_values([value, *keys], ascending=[ascending] + [True] * len(keys))
            .head(k).reset_index(drop=True))


def _blocks(frame: pd.DataFrame, rows: int):
    """``frame`` as a Dataset of ``rows``-row blocks."""
    import ray.data as rd

    t = pa.Table.from_pandas(frame, preserve_index=False)
    return rd.from_arrow([t.slice(i, rows) for i in range(0, t.num_rows, rows)])


def test_rankings_equal_pandas_with_ties(ray_session, tmp_path, monkeypatch):
    """Every ranking on the per-entity exchange (``top_k_by_key``) equals
    pandas' groupby + sort + head over the whole input, ties broken by
    the keys ascending, with the exchange forced to many parts and k
    above the number of distinct ranking values: ``top_anomaly_results``
    (k above the anomalous entities), ``top_forecast_results``,
    ``q_top_entities`` and ``decayed_top_entities``."""
    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines.detector import top_anomaly_results
    from anomaly_detection_ray.pipelines.forecast import top_forecast_results
    from anomaly_detection_ray.pipelines.queries import q_top_entities
    from anomaly_detection_ray.stages import exchange
    from anomaly_detection_ray.stages.priority import decayed_top_entities

    monkeypatch.setattr(exchange, "PART_BYTES", 1 << 10)
    cfg = _detector_cfg()
    rng = np.random.default_rng(5)

    res = pd.DataFrame({"entity": [f"e{i % 40:02d}" for i in range(400)],
                        "anomaly_grade": rng.choice([0.0] * 30 + [0.5, 1.0], 400)})
    want = res.groupby("entity")["anomaly_grade"].max().rename("max_anomaly_grade").reset_index()
    assert 0 < (want["max_anomaly_grade"] > 0).sum() < 30
    pd.testing.assert_frame_equal(top_anomaly_results(_blocks(res, 50), cfg, k=30),
                                  _ranked(want, "max_anomaly_grade", ["entity"], 30), check_exact=True)

    fc = pd.DataFrame({"entity": [f"e{i // 3:02d}" for i in range(60)],
                       "horizon_index": [i % 3 + 1 for i in range(60)],
                       "forecast_value": rng.choice([1.0, 2.0, 3.0], 60)})
    fc["forecast_lower"] = fc["forecast_value"] - rng.choice([0.5, 1.0], 60)
    fc["forecast_upper"] = fc["forecast_value"] + 0.5
    name = "MAX_VALUE_WITHIN_THE_HORIZON"
    want = fc.groupby("entity")["forecast_value"].max().rename(name).reset_index()
    pd.testing.assert_frame_equal(top_forecast_results(_blocks(fc, 12), cfg, k=15, build_in_query=name),
                                  _ranked(want, name, ["entity"], 15), check_exact=True)
    name, last = "MIN_CONFIDENCE_INTERVAL_WIDTH", fc[fc["horizon_index"] == 3]
    want = (last["forecast_upper"] - last["forecast_lower"]).groupby(last["entity"]).min()
    got = top_forecast_results(_blocks(fc, 12), cfg, k=15, build_in_query=name, horizon=3)
    pd.testing.assert_frame_equal(got, _ranked(want.rename(name).reset_index(), name, ["entity"], 15,
                                               ascending=True), check_exact=True)

    # user u: (u % 4) + 1 events from period u % 3 on, so users with the
    # same u % 12 tie on count and on decayed priority
    base, period = 1_700_000_400_000, 600_000
    ev = pd.DataFrame([(u, base + p * period + u * 1000) for u in range(30)
                       for p in range(u % 3, u % 3 + u % 4 + 1)], columns=["user_id", "ms"])
    ev["ts"] = pd.to_datetime(ev["ms"], unit="ms")
    pq.write_table(pa.Table.from_pandas(ev[["user_id", "ts"]], preserve_index=False),
                   str(tmp_path / "events.parquet"))
    want = ev.groupby("user_id").size().rename("cnt").reset_index()
    pd.testing.assert_frame_equal(q_top_entities(str(tmp_path)), _ranked(want, "cnt", ["user_id"], 10),
                                  check_exact=True)
    g = ev.assign(n=(ev["ms"] - base) // period).groupby(["user_id", "n"]).size().rename("cnt").reset_index()
    g["w"] = g["cnt"] * np.exp(0.125 * (g["n"] - g.groupby("user_id")["n"].transform("max")))
    pri = g.groupby("user_id").agg(w=("w", "sum"), m=("n", "max")).reset_index()
    pri["priority"] = np.round(np.log(pri["w"]) + 0.125 * pri["m"], 6)
    got = decayed_top_entities(_blocks(ev[["user_id", "ts"]], 10), "user_id", k=12, landmark_ms=base)
    pd.testing.assert_frame_equal(got, _ranked(pri[["user_id", "priority"]], "priority", ["user_id"], 12),
                                  check_exact=True)


def test_read_side_apis_run_no_ray_data_groupby_or_sort(ray_session, tmp_path, monkeypatch):
    """Layer B's ranking and counting APIs run on the raw-Ray exchange
    with P ≥ 2 parts, and its min/max reads on per-block partials: with
    Ray Data's ``Dataset.groupby`` and ``Dataset.sort`` made to raise,
    every one still answers."""
    import pyarrow.parquet as pq
    from ray.data import Dataset

    from anomaly_detection_ray.pipelines import queries as q
    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.stages import exchange

    rng = np.random.default_rng(9)
    n = 2400
    ms = 1_700_000_400_000 + np.sort(rng.integers(0, 200 * 600_000, n))
    pq.write_table(pa.table({
        "ts": pa.array(ms).cast(pa.timestamp("ms")),
        "user_id": rng.integers(0, 40, n),
        "event_type": rng.choice(["a", "b", "c"], n),
        "value": rng.normal(10.0, 1.0, n),
    }), str(tmp_path / "events.parquet"))
    used, real = [], exchange.exchange

    def spy(inputs, split, split_arg, n_parts, *rest):
        used.append(n_parts)
        return real(inputs, split, split_arg, n_parts, *rest)

    def refuse(*args, **kwargs):
        raise AssertionError("a Ray Data groupby/sort plan")

    monkeypatch.setattr(exchange, "exchange", spy)
    monkeypatch.setattr(Dataset, "groupby", refuse)
    monkeypatch.setattr(Dataset, "sort", refuse)
    cfg = dataclasses.replace(_detector_cfg(), category_fields=("event_type",))
    api = DetectorAPI(cfg, str(tmp_path / "events.parquet"))
    assert len(api.top_anomalies(k=2)) == 2
    assert len(api.top_forecasts(k=2, horizon=4)) == 2
    assert api.suggest_interval() > 0
    assert set(api.preview(max_entities=2)["event_type"]) <= {"a", "b", "c"}
    assert api.profile()["n_entities"] == 3
    # min/max too (Dataset.aggregate and Dataset.max are groupby(None));
    # a profile read creates no checkpoint directory
    ev = pq.read_table(str(tmp_path / "events.parquet")).to_pandas()
    ev["ms"] = ev["ts"].to_numpy().astype("datetime64[ms]").astype(np.int64)
    absent = tmp_path / "no_checkpoints"
    prof = api.profile(checkpoint_dir=str(absent), entity={"event_type": "b"})
    assert prof["last_sample_ms"] == ev.loc[ev["event_type"] == "b", "ms"].max()
    assert prof["n_models"] == 0 and not absent.exists()
    assert q.q_min_max_time(str(tmp_path)).iloc[0].tolist() == [ev["ms"].min(), ev["ms"].max()]
    for query in (q.q_top_entities, q.q_decayed_top_entities, q.q_value_percentile,
                  q.q_interval_suggest):
        assert len(query(str(tmp_path))) > 0, query.__name__
    assert used and min(used) >= 2


def test_process_many_identical_to_process():
    """The batched model path must be bit-identical to per-point process()
    across gaps, NaN features and imputation."""
    cfg = DetectorConfig(config_id="pm", interval_s=600, shingle_size=8,
                         features=(FeatureSpec("f0", "value", "avg"),),
                         num_trees=10, sample_size=64, imputation="linear")
    rng = np.random.default_rng(7)
    n = 300
    vals = 100 + 50 * np.cos(2 * np.pi * np.arange(n) / 24) + rng.uniform(-2, 2, n)
    vals[80] *= 5
    vals[150] = np.nan
    ends = (np.arange(n) + 1) * 600_000
    ends[200:] += 5 * 600_000        # gap of 5 windows at 200
    ends = ends.copy()
    m1, m2 = TRCFModel(cfg, "m"), TRCFModel(cfg, "m")
    per_point = [m1.process(np.array([v]), int(e)) for v, e in zip(vals, ends)]
    out = m2.process_many(vals[:, None], ends)
    assert np.array_equal(np.array([r["anomaly_score"] for r in per_point]), out["anomaly_score"])
    assert np.array_equal(np.array([r["anomaly_grade"] for r in per_point]), out["anomaly_grade"])
    assert m1.n_points == m2.n_points
    assert np.array_equal(np.concatenate(m1.shingle), np.concatenate(m2.shingle))
    # detailed pass returns the same scores plus sane enrichment
    m3 = TRCFModel(cfg, "m")
    det = m3.process_many(vals[:, None], ends, detailed=True)
    assert np.array_equal(det["anomaly_score"], out["anomaly_score"])
    i = 80  # the spike: expected value should sit near the normal band
    assert det["anomaly_score"][i] > 2.0
    assert abs(det["expected"][i, 0] - 150) < 120  # normal band is 50..150
    assert det["attribution"][i, 0] == pytest.approx(det["anomaly_score"][i])
    assert det["past"][i, 0] == pytest.approx(vals[79])


def test_detect_with_rules_suppression(ray_session):
    """B9 wired end-to-end: config.rules suppress within-margin anomalies
    using the scorer's own expected values, while real spikes survive
    (IgnoreSimilarExtractor / ADColdStart.java:304-324 semantics)."""
    import pyarrow as pa
    import ray.data as rd

    from anomaly_detection_ray.functions.rules import Rule
    from anomaly_detection_ray.pipelines.detector import detect

    rng = np.random.default_rng(4)
    n = 260
    vals = 100 + rng.uniform(-1, 1, n)
    vals[200] = 5000.0   # huge spike: must survive any margin rule
    ts = (np.arange(n) + 1) * 600_000
    t = pa.table({
        "entity": ["e0"] * n,
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("ms")),
        "value": vals,
    })
    base_cfg = dict(
        config_id="rules-e2e", interval_s=600, shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),),
        category_fields=("entity",), num_trees=10, sample_size=64,
    )
    cfg = DetectorConfig(**base_cfg, rules=(Rule("value_avg", "actual_over_expected_margin", 10_000.0),))
    res = detect(rd.from_arrow(t), cfg).to_pandas().reset_index(drop=True)
    assert {"value_avg_expected", "value_avg_attribution", "value_avg_past", "suppressed_by_rule"} <= set(res.columns)
    spike = res.loc[res["value_avg"].idxmax()]  # the planted 5000 window itself
    spike_we = spike["window_end_ms"]
    # within the absurd 10k margin → suppressed despite the high score
    assert spike["anomaly_score"] > 2.0 and spike["anomaly_grade"] == 0.0 and spike["suppressed_by_rule"]
    # tight margin → the spike survives
    cfg2 = DetectorConfig(**base_cfg, rules=(Rule("value_avg", "actual_over_expected_margin", 5.0),))
    res2 = detect(rd.from_arrow(t), cfg2).to_pandas()
    spike2 = res2[res2["window_end_ms"] == spike_we].iloc[0]
    assert spike2["anomaly_grade"] > 0.0 and not spike2["suppressed_by_rule"]
    assert not res2["suppressed_by_rule"].iloc[:100].any()


def test_process_many_chunked_equals_whole():
    """VERDICT r1 #7 (chunked stateful scoring): feeding a model's history
    in bounded chunks produces byte-identical results to one call — a
    100x-longer history can stream through in slices without ever
    needing the whole group's scores in flight."""
    cfg = DetectorConfig(config_id="chunks", interval_s=600, shingle_size=8,
                         features=(FeatureSpec("f0", "value", "avg"),),
                         num_trees=10, sample_size=64)
    rng = np.random.default_rng(13)
    n = 500
    vals = (100 + 20 * np.sin(np.arange(n) / 9) + rng.uniform(-1, 1, n))[:, None]
    ends = (np.arange(n) + 1) * 600_000
    m1, m2 = TRCFModel(cfg, "m"), TRCFModel(cfg, "m")
    whole = m1.process_many(vals, ends)
    parts = [m2.process_many(vals[i:i + 97], ends[i:i + 97]) for i in range(0, n, 97)]
    for key in ("anomaly_score", "anomaly_grade", "confidence"):
        assert np.array_equal(whole[key], np.concatenate([p[key] for p in parts])), key


def test_cold_start_history_parity(ray_session, stream_table):
    """C4: a time-range run trains cold models on the preceding history
    windows (ModelColdStart.java:217-339 sample fetch) — scores inside
    the range equal a run that saw the whole stream live."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect

    cfg = DetectorConfig(
        config_id="det-e2e", interval_s=600, shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),),
        category_fields=("entity",), num_trees=10, sample_size=64,
        history_intervals=160,  # covers every window before the cut
    )
    sort_cols = ["model_id", "window_end_ms"]
    full = detect(rd.from_arrow(stream_table), cfg, ts_col="ts")\
        .to_pandas().sort_values(sort_cols).reset_index(drop=True)
    w = 600_000
    lo = int(full["window_start_ms"].min() + 150 * w)
    hi = int(full["window_end_ms"].max())
    ranged = detect(rd.from_arrow(stream_table), cfg, ts_col="ts",
                    time_range_ms=(lo, hi))\
        .to_pandas().sort_values(sort_cols).reset_index(drop=True)
    want = full[full["window_start_ms"] >= lo].reset_index(drop=True)
    pd.testing.assert_frame_equal(ranged, want)
    # without history the same range cold-starts blind: its warm-up
    # re-runs inside the range (zero scores where the full run scored)
    blind = detect(rd.from_arrow(stream_table), cfg, ts_col="ts",
                   time_range_ms=(lo, hi), cold_start_history=False)\
        .to_pandas().sort_values(sort_cols).reset_index(drop=True)
    head = blind.groupby("model_id").head(20)
    assert (head["anomaly_score"] == 0).all()
    assert (want.groupby("model_id").head(20)["anomaly_score"] > 0).any()


def test_detect_two_categories_two_features(ray_session):
    """HC limit case (reference supports ≤2 category fields) with a
    2-feature detector: one model per (entity, region) combo, per-feature
    expected values + attribution, spike flagged on the right combo and
    attributed to the right feature."""
    import pyarrow as pa
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect

    rng = np.random.default_rng(6)
    rows = []
    n_win = 160
    for e in ("a", "b"):
        for r in ("east", "west"):
            for i in range(n_win):
                v = 50 + (10 if e == "a" else 0) + rng.uniform(-1, 1)
                c = 5 + rng.uniform(-0.5, 0.5)
                if (e, r) == ("b", "west") and i == 120:
                    v = 5000.0  # spike only in feature 1 of one combo
                rows.append((e, r, (i + 1) * 600_000, v, c))
    t = pa.table({
        "entity": [r[0] for r in rows],
        "region": [r[1] for r in rows],
        "ts": pa.array([r[2] for r in rows], pa.int64()).cast(pa.timestamp("ms")),
        "value": [r[3] for r in rows],
        "cost": [r[4] for r in rows],
    })
    cfg = DetectorConfig(
        config_id="hc2", interval_s=600, shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),
                  FeatureSpec("cost_max", "cost", "max")),
        category_fields=("entity", "region"),
        num_trees=10, sample_size=64,
    )
    res = detect(rd.from_arrow(t), cfg, detailed=True).to_pandas()
    assert res["model_id"].nunique() == 4
    assert {"value_avg_expected", "cost_max_expected", "value_avg_attribution",
            "cost_max_attribution"} <= set(res.columns)
    flagged = res[res["anomaly_grade"] > 0]
    assert len(flagged) > 0
    combos = set(zip(flagged["entity"], flagged["region"]))
    assert combos == {("b", "west")}
    spike = res.loc[res["value_avg"].idxmax()]
    assert spike["entity"] == "b" and spike["region"] == "west"
    assert spike["anomaly_grade"] > 0
    # the offending feature dominates the attribution
    assert spike["value_avg_attribution"] > 0.7 > spike["cost_max_attribution"]
    # determinism across runs with 2 cats + 2 features
    res2 = detect(rd.from_arrow(t), cfg, detailed=True).to_pandas()
    key = ["model_id", "window_end_ms"]
    pd.testing.assert_frame_equal(
        res.sort_values(key).reset_index(drop=True),
        res2.sort_values(key).reset_index(drop=True),
    )


def test_detect_degenerate_inputs(ray_session):
    """Empty input → empty result; a single window → warm-up zero score;
    an all-NaN feature stream imputes and never alarms."""
    import pyarrow as pa
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect

    cfg = DetectorConfig(config_id="degen", interval_s=600, category_fields=("entity",),
                         features=(FeatureSpec("value_avg", "value", "avg"),),
                         num_trees=5, sample_size=32)
    empty = pa.table({"entity": pa.array([], pa.string()),
                      "ts": pa.array([], pa.int64()).cast(pa.timestamp("ms")),
                      "value": pa.array([], pa.float64())})
    assert len(detect(rd.from_arrow(empty), cfg).to_pandas()) == 0
    one = pa.table({"entity": ["e"], "ts": pa.array([600_000], pa.int64()).cast(pa.timestamp("ms")),
                    "value": [1.0]})
    out = detect(rd.from_arrow(one), cfg).to_pandas()
    assert len(out) == 1 and out["anomaly_score"].iloc[0] == 0.0
    nan = pa.table({"entity": ["e"] * 40,
                    "ts": pa.array((np.arange(40) + 1) * 600_000, pa.int64()).cast(pa.timestamp("ms")),
                    "value": [float("nan")] * 40})
    out = detect(rd.from_arrow(nan), cfg).to_pandas()
    assert len(out) == 40 and (out["anomaly_grade"] == 0).all()
    # empty model-level batch is a no-op
    m = TRCFModel(cfg, "m")
    r = m.process_many(np.empty((0, 1)), np.empty(0, dtype=np.int64))
    assert r["keep"].size == 0 and m.n_points == 0


def test_detect_high_cardinality_quality(ray_session):
    """HC-scale shape mirroring the reference's multi-entity cosine
    generator (generate-cosine-data-multi-entity.py defaults scaled
    down): 100 entity models in one run, quality floors per the e2e
    assertion, and every entity's model independent (no cross-entity
    flag leakage)."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=100, n_windows=160, interval_s=600, seed=21,
                                 anomaly_prob=0.01, spike_factor=5.0, period=24)
    cfg = DetectorConfig(
        config_id="hc100", interval_s=600, shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),),
        category_fields=("entity",), num_trees=10, sample_size=64,
    )
    res = detect(rd.from_arrow(t), cfg, ts_col="ts").to_pandas()
    assert res["model_id"].nunique() == 100

    truth = t.to_pandas()
    ts_ms = truth["ts"].astype("datetime64[ms]").astype("int64")
    truth["window_end_ms"] = ts_ms // 600_000 * 600_000 + 600_000
    label = truth.groupby(["entity", "window_end_ms"])["is_anomaly_truth"].any().reset_index()
    spikes = label[label["is_anomaly_truth"]]
    assert len(spikes) > 20  # 100 entities × 160 windows × 1%
    flagged = res[(res["anomaly_grade"] > 0)]
    w = 600_000

    def near(row, within):
        s = spikes[spikes["entity"] == row["entity"]]
        return bool(((row["window_end_ms"] - s["window_end_ms"]).between(0, within)).any())

    tp = flagged.apply(lambda r: near(r, cfg.shingle_size * w), axis=1)
    precision = tp.mean() if len(flagged) else 0.0
    recalled = spikes.apply(
        lambda s: bool(((flagged["entity"] == s["entity"])
                        & (flagged["window_end_ms"] - s["window_end_ms"]).between(0, 2 * w)).any()),
        axis=1,
    )
    assert precision >= 0.4, f"precision {precision}"
    assert recalled.mean() >= 0.7, f"recall {recalled.mean()}"


def _exact_events(stream_table: pa.Table) -> pa.Table:
    """The stream with nulls in its value column (every 7th row) and an
    int ``code`` column (nulls at the same rows) to count distinct.
    Values have 5 decimals, so interpolated quantiles often fall on a
    ``round(x, 5)`` tie, where Python's ``round`` and ``np.round``
    differ."""
    v = np.round(stream_table["value"].to_numpy(), 5)
    null = np.arange(len(v)) % 7 == 3
    return stream_table.set_column(
        stream_table.column_names.index("value"), "value", pa.array(v, mask=null)
    ).append_column("code", pa.array((v // 10).astype(np.int64), mask=null))


def _ray_exact(ds, keys: list[str]) -> pd.DataFrame:
    """Ray's own ``groupby().aggregate`` of the exact features: Quantile
    as it is; Unique keeps null as one value, which the cardinality
    partial drops (OpenSearch's cardinality ignores missing values)."""
    from ray.data.aggregate import Quantile, Unique

    out = ds.groupby(keys).aggregate(
        Quantile("value", q=0.5, alias_name="p50"), Quantile("value", q=0.9, alias_name="p90"),
        Unique("code", alias_name="codes")).to_pandas()
    out["n_codes"] = [float(sum(1 for c in u if c == c)) for u in out.pop("codes")]
    return out


def test_exact_partials_equal_ray_aggregates(ray_session, stream_table):
    """Exact ``percentile`` (q = 0.5, 0.9) and ``cardinality`` are
    mergeable partials (value lists, distinct sets): over fixed, calendar
    and explicit-range windows, from 3 and 7 blocks of an input with
    null values, they equal Ray's ``Quantile``/``Unique`` bit for bit. An
    HLL feature rides every window kind, calendar windows included."""
    import pyarrow.compute as pc
    import ray.data as rd

    from anomaly_detection_ray.stages.window import (
        add_calendar_window_columns,
        add_window_columns,
        date_range_aggregate,
        window_aggregate,
    )

    t = _exact_events(stream_table)
    cfg = DetectorConfig(config_id="exact", interval_s=600, category_fields=("entity",), features=(
        FeatureSpec("p50", "value", "percentile", percentile=0.5),
        FeatureSpec("p90", "value", "percentile", percentile=0.9),
        FeatureSpec("n_codes", "code", "cardinality"),
        FeatureSpec("uv", "code", "cardinality_hll")))
    t0, h = int(pc.min(t["ts"]).cast(pa.int64()).as_py()), 3_600_000
    ranges = [(t0, t0 + 6 * h), (t0 + 6 * h, t0 + 30 * h), (t0 + 40 * h, t0 + 50 * h)]

    def in_range(b: pa.Table) -> pa.Table:
        ts = pc.cast(b["ts"], pa.int64()).to_numpy()
        idx = np.full(len(ts), -1, np.int64)
        for i, (lo, hi) in enumerate(ranges):
            idx[(ts >= lo) & (ts < hi)] = i
        b = b.append_column("range_idx", pa.array(idx))
        return b.filter(pc.greater_equal(b["range_idx"], 0))

    win = ["entity", "window_start_ms", "window_end_ms"]
    kinds = [
        (lambda ds: window_aggregate(ds, cfg, ts_col="ts"),
         lambda b: add_window_columns(b, "ts", 600_000), win),
        (lambda ds: window_aggregate(ds, cfg, ts_col="ts", calendar_interval="1w"),
         lambda b: add_calendar_window_columns(b, "ts", "1w"), win),
        (lambda ds: date_range_aggregate(ds, cfg, ranges, ts_col="ts"),
         in_range, ["entity", "range_idx"]),
    ]
    feats = ["p50", "p90", "n_codes"]
    for blocks in (3, 7):
        ds = rd.from_arrow(t).repartition(blocks)
        for ours, assign, keys in kinds:
            got = _sorted(ours(ds).to_pandas(), keys)
            want = _sorted(_ray_exact(ds.map_batches(assign, batch_format="pyarrow"), keys), keys)
            assert len(got) == len(want) > 0 and got[keys].equals(want[keys])
            assert got[feats].isna().sum().sum() == 0
            pd.testing.assert_frame_equal(got[feats], want[feats], check_exact=True)
            assert np.allclose(got["uv"], got["n_codes"], rtol=0.05, atol=1)


def test_unsupported_agg_raises_at_plan_time(ray_session, stream_table):
    """An unknown ``FeatureSpec.agg`` raises a ``ValueError`` naming it
    when the plan is built, before any block runs — it is not computed
    as some other agg."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.stages.window import date_range_aggregate, window_aggregate

    cfg = dataclasses.replace(_detector_cfg(), features=(FeatureSpec("v_med", "value", "median"),))
    ds = rd.from_arrow(stream_table)
    for run in (lambda: detect(ds, cfg, ts_col="ts"),
                lambda: window_aggregate(ds, cfg, ts_col="ts"),
                lambda: date_range_aggregate(ds, cfg, [(0, 2**62)], ts_col="ts")):
        with pytest.raises(ValueError, match="'median'"):
            run()


def test_chunked_scoring_byte_identical(ray_session, monkeypatch):
    """In-run chunked stateful scoring: one entity with a long history
    scored under a tiny chunk cap must be byte-identical to the unchunked
    path (bounds per-group work-array memory — VERDICT r2 item #2)."""
    from anomaly_detection_ray.sources.streams import generate_interval_stream
    from anomaly_detection_ray.stages import scorer

    t = generate_interval_stream(
        n_entities=2, n_windows=1200, interval_s=600, seed=9,
        anomaly_prob=0.01, spike_factor=5.0, events_per_window=2,
    )
    cfg = DetectorConfig(
        config_id="chunk", interval_s=600, shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),
                  FeatureSpec("value_max", "value", "max")),
        category_fields=("entity",), num_trees=10, sample_size=64,
    )
    group = _score_input(t, cfg)

    def score(chunk_rows: int) -> pd.DataFrame:
        monkeypatch.setattr(scorer, "CHUNK_ROWS", chunk_rows)
        return scorer.ScoreGroups(cfg, detailed=True)(group).to_pandas()

    whole = score(10**9)
    pd.testing.assert_frame_equal(whole, score(97))
    assert len(whole) > 1000  # the history actually spanned many chunks


def test_detect_percentile_feature(ray_session, stream_table):
    """An exact percentile feature scores end-to-end through detect's one
    plan (its value-list partials merge in the scoring reducer)."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect

    cfg = DetectorConfig(
        config_id="pct", interval_s=600, shingle_size=8,
        features=(FeatureSpec("value_p90", "value", "percentile", percentile=0.9),),
        category_fields=("entity",), num_trees=5, sample_size=32,
    )
    res = detect(rd.from_arrow(stream_table), cfg, ts_col="ts").to_pandas()
    assert len(res) > 0 and "value_p90" in res.columns
    assert res["anomaly_score"].max() > 0  # scored past warm-up


def test_read_events_formats_equivalent(ray_session, tmp_path):
    """CSV / JSONL / parquet event logs normalize to one schema and give
    identical detect() results (the multi-format ingest surface)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.sources.files import read_events

    rng = np.random.default_rng(3)
    n = 200
    ts_ms = (np.arange(n) + 1) * 600_000 + 1_700_000_000_000
    rows = [{"entity": f"e{i % 2}", "ts": int(ts_ms[i]), "value": round(float(rng.normal(100, 5)), 6)}
            for i in range(n)]
    pqp = str(tmp_path / "ev.parquet")
    t = pa.table({
        "entity": [r["entity"] for r in rows],
        "ts": pa.array([r["ts"] for r in rows], pa.int64()).cast(pa.timestamp("ms")),
        "value": [r["value"] for r in rows],
    })
    pq.write_table(t, pqp)
    csvp = str(tmp_path / "ev.csv")
    with open(csvp, "w") as f:
        f.write("entity,ts,value\n")
        for r in rows:
            f.write(f"{r['entity']},{r['ts']},{r['value']}\n")
    jlp = str(tmp_path / "ev.jsonl")
    with open(jlp, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")

    cfg = DetectorConfig(config_id="fmt", interval_s=600, category_fields=("entity",),
                         features=(FeatureSpec("value_avg", "value", "avg"),),
                         num_trees=5, sample_size=32)
    key = ["model_id", "window_end_ms"]
    outs = {}
    for name, path in [("parquet", pqp), ("csv", csvp), ("jsonl", jlp)]:
        ds = read_events(path)
        outs[name] = detect(ds, cfg).to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(outs["parquet"], outs["csv"])
    pd.testing.assert_frame_equal(outs["parquet"], outs["jsonl"])
    # epoch-SECONDS timestamps auto-detect (magnitude heuristic)
    csv2 = str(tmp_path / "ev_s.csv")
    with open(csv2, "w") as f:
        f.write("entity,ts,value\n")
        for r in rows:
            f.write(f"{r['entity']},{r['ts'] // 1000},{r['value']}\n")
    secs = detect(read_events(csv2), cfg).to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(outs["parquet"], secs)


def test_normalize_ts_float_epochs(ray_session, tmp_path):
    """Fractional epoch-seconds (float CSV timestamps) must not crash the
    int64 cast and must keep sub-second precision after the ms scaling."""
    import pyarrow as pa

    from anomaly_detection_ray.sources.files import normalize_ts

    t = pa.table({"ts": pa.array([1_700_000_000.25, 1_700_000_001.75, 0.0], pa.float64())})
    out = normalize_ts(t, "ts")
    ms = out["ts"].cast(pa.int64()).to_pylist()
    assert ms == [1_700_000_000_250, 1_700_000_001_750, 0]
    # float epoch-MILLIS stay millis (magnitude auto-detect on floats)
    t2 = pa.table({"ts": pa.array([1_700_000_000_250.0, 1_700_000_001_750.0], pa.float64())})
    assert normalize_ts(t2, "ts")["ts"].cast(pa.int64()).to_pylist() == [
        1_700_000_000_250, 1_700_000_001_750]
