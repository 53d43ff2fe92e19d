"""D9 anomaly correlation clustering + B9 suppression rules."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from anomaly_detection_ray.functions.rules import Rule, apply_rules, suppressed_mask
from anomaly_detection_ray.stages.correlation import (
    ALPHA,
    correlate_clusters,
    pairwise_similarity,
)

MIN = 60_000


def _anoms(rows):
    return pd.DataFrame(rows, columns=["model_id", "config_id", "start_ms", "end_ms"])


# ---------- pairwise similarity semantics ----------

def test_similarity_identical_intervals():
    sim, ov = pairwise_similarity(0, 30 * MIN, 0, 30 * MIN)
    assert sim == pytest.approx(1.0)
    assert ov == 40 * MIN  # dilated ±5 min each side


def test_similarity_disjoint_far_apart():
    sim, ov = pairwise_similarity(0, 10 * MIN, 60 * MIN, 70 * MIN)
    assert sim == 0.0 and ov == 0.0


def test_similarity_containment_boost():
    # 4h coarse anomaly containing a 10-min fine anomaly: plain IoU is
    # tiny, but strong containment blends in the overlap coefficient
    long_s, long_e = 0, 240 * MIN
    short_s, short_e = 100 * MIN, 110 * MIN
    sim, _ = pairwise_similarity(long_s, long_e, short_s, short_e)
    iou = (20 * MIN) / (250 * MIN)  # dilated overlap / union
    plain = iou * np.exp(-(230 * MIN) / (30 * MIN))  # no containment treatment
    assert sim > 10 * plain  # containment blending + relaxed penalty dominate


def test_duration_penalty_discourages_mismatch():
    # same overlap, increasingly different durations → lower similarity
    s1, _ = pairwise_similarity(0, 30 * MIN, 0, 30 * MIN)
    s2, _ = pairwise_similarity(0, 30 * MIN, 0, 60 * MIN)
    assert s1 > s2 > 0


# ---------- clustering ----------

def test_clusters_group_cooccurring(ray_session):
    df = _anoms(
        [
            ("m1", "d1", 0, 20 * MIN),
            ("m2", "d2", 5 * MIN, 25 * MIN),          # overlaps m1 → same cluster
            ("m3", "d1", 300 * MIN, 320 * MIN),        # far later → own cluster
            ("m4", "d2", 302 * MIN, 321 * MIN),        # overlaps m3
            ("m5", "d3", 1000 * MIN, 1010 * MIN),      # singleton
        ]
    )
    out = correlate_clusters(df)
    cl = out.set_index("model_id")["cluster_id"]
    assert cl["m1"] == cl["m2"]
    assert cl["m3"] == cl["m4"]
    assert cl["m1"] != cl["m3"] != cl["m5"]
    w = out[out["model_id"] == "m1"].iloc[0]
    assert w["window_start_ms"] == 0 and w["window_end_ms"] == 25 * MIN
    # drop singletons variant
    out2 = correlate_clusters(df, include_singletons=False)
    assert "m5" not in set(out2["model_id"])


def test_coarse_detector_start_dilation(ray_session):
    # coarse 60-min detector anomaly starting one bucket late still links
    # to the fine anomaly at the true onset
    df = _anoms(
        [
            ("fine", "dfine", 0, 20 * MIN),
            ("coarse", "dcoarse", 60 * MIN, 120 * MIN),
        ]
    )
    no_dil = correlate_clusters(df)
    assert no_dil.set_index("model_id")["cluster_id"].nunique() == 2
    dil = correlate_clusters(df, interval_ms_by_config={"dcoarse": 60 * MIN, "dfine": MIN})
    cl = dil.set_index("model_id")["cluster_id"]
    assert cl["fine"] == cl["coarse"]


# ---------- rules ----------

def test_suppressed_mask_semantics():
    actual = np.array([12.0, 8.0, 25.0, 10.0])
    expected = np.array([10.0, 10.0, 10.0, 10.0])
    r = Rule("f", "actual_over_expected_margin", 5.0)
    assert list(suppressed_mask(actual, expected, r)) == [True, False, False, False]
    r = Rule("f", "expected_over_actual_margin", 5.0)
    assert list(suppressed_mask(actual, expected, r)) == [False, True, False, False]
    r = Rule("f", "actual_over_expected_ratio", 0.5)
    assert list(suppressed_mask(actual, expected, r)) == [True, False, False, False]
    with pytest.raises(ValueError):
        Rule("f", "bogus", 1.0)


def test_apply_rules_zeroes_grades():
    t = pa.table(
        {
            "value_avg": [12.0, 50.0],
            "expected_value": [10.0, 10.0],
            "anomaly_grade": [0.9, 0.9],
            "is_anomaly": [True, True],
        }
    )
    out = apply_rules(t, [Rule("value_avg", "actual_over_expected_margin", 5.0)], {"value_avg": "expected_value"})
    assert out["anomaly_grade"].to_pylist() == [0.0, 0.9]
    assert out["is_anomaly"].to_pylist() == [False, True]
    assert out["suppressed_by_rule"].to_pylist() == [True, False]


def test_scalar_similarity_matches_vectorized_kappa_eff():
    """ADVICE r1: under strong containment the scalar oracle must apply the
    same coarse-interval kappa_eff relaxation as the vectorized sweep."""
    from anomaly_detection_ray.stages.correlation import CONTAINMENT_RELAX, LAM

    coarse, _ = pairwise_similarity(0, 240 * MIN, 100 * MIN, 110 * MIN, interval1_ms=60 * MIN)
    plain, _ = pairwise_similarity(0, 240 * MIN, 100 * MIN, 110 * MIN)
    assert coarse > plain  # relaxed duration penalty under coarse interval
    la, lb, ov = 250 * MIN, 20 * MIN, 20 * MIN
    iou, ovl = ov / (la + lb - ov), 1.0
    t = (1 - LAM) * iou + LAM * ovl
    want = t * np.exp(-(230 * MIN) / (60 * MIN)) ** CONTAINMENT_RELAX
    assert coarse == pytest.approx(want)
