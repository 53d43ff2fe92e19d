"""Mergeable sketch aggregations: HLL cardinality + t-digest percentiles.

The reference's feature surface is sketch-backed at scale
(`AbstractRetriever.java:80-89` t-digest percentiles;
`ProfileRunner.java:271,301` HLL cardinality) — these tests bound the
sketch error against the exact twins and prove the merge path (partial
per batch → exchange → merge) is value-stable and scores through
detect's plan.
"""

import numpy as np
import pandas as pd
import pytest

from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
from anomaly_detection_ray.functions import sketches as sk


# ---------- unit: HLL ----------

def test_hll_accuracy_and_merge_identity():
    rng = np.random.default_rng(7)
    vals = rng.integers(0, 200_000, 100_000)
    true = len(np.unique(vals))
    h = sk.hash64_values(vals)
    whole = sk.hll_build_grouped(np.zeros(vals.size, int), 1, h)[0]
    est = sk.hll_estimate(whole)
    assert abs(est - true) / true < 0.05  # 3σ at p=12 is ~4.9%

    # merge of 8 partials == whole (registers identical, not just estimate)
    parts = [sk.hll_build_grouped(np.zeros(12_500, int), 1, h[i * 12_500:(i + 1) * 12_500])[0]
             for i in range(8)]
    assert np.array_equal(sk.hll_merge(np.stack(parts)), whole)


def test_hll_small_counts_near_exact():
    # linear-counting regime: tiny sets count (almost) exactly
    for n in (1, 5, 37, 400):
        h = sk.hash64_values(np.arange(n) * 1_000_003)
        est = sk.hll_estimate(sk.hll_build_grouped(np.zeros(n, int), 1, h)[0])
        assert abs(est - n) <= max(1, 0.02 * n)


def test_hll_string_and_float_values():
    strs = np.array([f"user-{i % 50}" for i in range(1000)], dtype=object)
    est = sk.hll_estimate(sk.hll_build_grouped(np.zeros(1000, int), 1, sk.hash64_values(strs))[0])
    assert abs(est - 50) <= 2
    # -0.0 and +0.0 hash identically (one distinct zero)
    f = sk.hash64_values(np.array([0.0, -0.0]))
    assert f[0] == f[1]


# ---------- unit: t-digest ----------

def test_tdigest_quantiles_accurate():
    rng = np.random.default_rng(3)
    v = np.concatenate([rng.normal(100, 15, 40_000), rng.exponential(500, 10_000)])
    blob = sk.tdigest_build_grouped(np.zeros(v.size, int), 1, v)[0]
    assert len(blob) <= 16 * (sk.TDIGEST_COMPRESSION + 1)  # bounded size
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        est = sk.tdigest_quantile(blob, q)
        # rank accuracy: the estimate must sit within ±1% quantile rank
        lo, hi = np.quantile(v, max(0.0, q - 0.01)), np.quantile(v, min(1.0, q + 0.01))
        assert lo <= est <= hi, (q, est, lo, hi)


def test_tdigest_merge_matches_whole():
    rng = np.random.default_rng(5)
    v = rng.lognormal(3, 1, 64_000)
    parts = [sk.tdigest_build_grouped(np.zeros(8_000, int), 1, v[i * 8_000:(i + 1) * 8_000])[0]
             for i in range(8)]
    merged = sk.tdigest_merge(parts)
    for q in (0.1, 0.5, 0.95):
        est = sk.tdigest_quantile(merged, q)
        lo, hi = np.quantile(v, max(0.0, q - 0.02)), np.quantile(v, min(1.0, q + 0.02))
        assert lo <= est <= hi


def test_tdigest_merge_order_independent_after_sort():
    rng = np.random.default_rng(9)
    parts = [sk.tdigest_build_grouped(np.zeros(500, int), 1, rng.normal(i, 1, 500))[0]
             for i in range(6)]
    a = sk.tdigest_merge(parts)
    b = sk.tdigest_merge(list(reversed(parts)))
    assert a == b  # byte-identical regardless of partial arrival order


def test_sketch_empty_inputs():
    assert sk.tdigest_quantile(b"", 0.5) != sk.tdigest_quantile(b"", 0.5)  # NaN
    assert sk.tdigest_merge([]) == b""
    assert sk.hll_estimate(np.zeros(4096, np.uint8)) == 0.0
    codes, n = np.empty(0, np.int64), 0
    assert sk.hll_build_grouped(codes, n, np.empty(0, np.uint64)).shape == (0, 4096)
    assert sk.tdigest_build_grouped(codes, n, np.empty(0)) == []


# ---------- integration: windowed sketch aggregation ----------

def _sketch_cfg(interval_s=3600):
    return DetectorConfig(
        config_id="sk", interval_s=interval_s,
        category_fields=("event_type",),
        features=(FeatureSpec("uv", "user_id", "cardinality_hll"),
                  FeatureSpec("p90", "value", "percentile_tdigest", percentile=0.9)),
    )


@pytest.fixture(scope="module")
def sketch_events():
    import pyarrow as pa

    rng = np.random.default_rng(11)
    n = 40_000
    ts = (rng.integers(0, 6, n) * 3600_000 + 1_700_000_000_000).astype("int64")
    return pa.table({
        "ts": pa.array(ts).cast(pa.timestamp("ms")),
        "event_type": pa.array(rng.choice(["a", "b", "c"], n)),
        "user_id": pa.array(rng.integers(0, 3000, n)),
        "value": pa.array(rng.lognormal(3, 0.8, n)),
    })


def test_window_aggregate_sketch_vs_exact(ray_session, sketch_events):
    import ray.data as rd

    from anomaly_detection_ray.stages.window import window_aggregate

    cfg = _sketch_cfg()
    # force several blocks so the merge path (partials from different
    # batches shuffled to one group) is actually exercised
    ds = rd.from_arrow(sketch_events).repartition(8)
    out = window_aggregate(ds, cfg, ts_col="ts").to_pandas()

    df = sketch_events.to_pandas()
    ts_ms = df["ts"].astype("datetime64[ms]").astype("int64")
    df["window_start_ms"] = ts_ms - ts_ms % 3_600_000
    truth = df.groupby(["event_type", "window_start_ms"]).agg(
        uv_t=("user_id", "nunique"),
        p90_t=("value", lambda s: np.quantile(s, 0.9)),
    ).reset_index()
    m = out.merge(truth, on=["event_type", "window_start_ms"])
    assert len(m) == len(truth) == len(out)
    assert ((m["uv"] - m["uv_t"]).abs() / m["uv_t"]).max() < 0.05
    # rank-style bound for the quantile (interpolation conventions differ)
    p88 = df.groupby(["event_type", "window_start_ms"])["value"].quantile(0.87).reset_index(name="lo")
    p92 = df.groupby(["event_type", "window_start_ms"])["value"].quantile(0.93).reset_index(name="hi")
    m = m.merge(p88, on=["event_type", "window_start_ms"]).merge(p92, on=["event_type", "window_start_ms"])
    assert (m["p90"] >= m["lo"]).all() and (m["p90"] <= m["hi"]).all()


def test_window_aggregate_sketch_deterministic(ray_session, sketch_events):
    import ray.data as rd

    from anomaly_detection_ray.stages.window import window_aggregate

    cfg = _sketch_cfg()
    key = ["event_type", "window_start_ms"]
    a = window_aggregate(rd.from_arrow(sketch_events).repartition(7), cfg, ts_col="ts")\
        .to_pandas().sort_values(key).reset_index(drop=True)
    b = window_aggregate(rd.from_arrow(sketch_events).repartition(3), cfg, ts_col="ts")\
        .to_pandas().sort_values(key).reset_index(drop=True)
    # block-split independent: HLL union is exact; t-digest partials are
    # per-batch so estimates may move within sketch error — bound tightly
    assert np.array_equal(a["uv"].to_numpy(), b["uv"].to_numpy())
    assert np.allclose(a["p90"], b["p90"], rtol=0.02)
    # same split twice → byte-identical
    c = window_aggregate(rd.from_arrow(sketch_events).repartition(7), cfg, ts_col="ts")\
        .to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, c)


def test_detect_fused_plan_with_sketch_features(ray_session, sketch_events):
    """detect() scores on the sketch feature values. Merging every
    entity's partials at once in one group (finalize_partials_multi)
    equals window_aggregate's merge across the exchange's parts, and
    detect() equals the scorer run in-process on those partials as ONE
    group."""
    import pyarrow as pa
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import _add_model_id, detect
    from anomaly_detection_ray.stages.scorer import ScoreGroups
    from anomaly_detection_ray.stages.window import (
        finalize_partials_multi,
        partial_window_aggregate,
        window_aggregate,
    )

    cfg = DetectorConfig(
        config_id="sk-det", interval_s=3600, shingle_size=2, output_after=2,
        category_fields=("event_type",),
        features=(FeatureSpec("uv", "user_id", "cardinality_hll"),
                  FeatureSpec("p90", "value", "percentile_tdigest", percentile=0.9)),
        num_trees=5, sample_size=32,
    )

    def ordered(df, key):
        return df.sort_values(key).reset_index(drop=True)[sorted(df.columns)]

    key = ["model_id", "window_end_ms"]
    got = ordered(detect(rd.from_arrow(sketch_events), cfg, ts_col="ts").to_pandas(), key)
    assert len(got) > 0 and {"uv", "p90", "anomaly_score"} <= set(got.columns)
    assert got["uv"].notna().all()

    part = pa.Table.from_pandas(
        partial_window_aggregate(rd.from_arrow(sketch_events), cfg, ts_col="ts").to_pandas(),
        preserve_index=False)
    merged = finalize_partials_multi(part, cfg, ["event_type"]).to_pandas()
    agg = window_aggregate(rd.from_arrow(sketch_events), cfg, ts_col="ts").to_pandas()
    wkey = ["event_type", "window_end_ms"]
    assert len(merged) == 3 * 6
    pd.testing.assert_frame_equal(ordered(merged, wkey), ordered(agg, wkey))

    whole = ScoreGroups(cfg)(_add_model_id(part, cfg)).to_pandas()
    pd.testing.assert_frame_equal(got, ordered(whole, key))
