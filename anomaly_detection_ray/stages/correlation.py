"""Anomaly correlation clustering — SURVEY.md §2.D9.

Reimplements ``ad/correlation/AnomalyCorrelation.java:59-1050`` (and
``Anomaly.java``): cluster anomalies from many detectors/models into
correlated incident windows.

Pairwise similarity between anomalies a, b (dilated by ±delta for
bucket-alignment fault tolerance; coarse community-agg detectors may
dilate the start by one interval — ``backwardDilation``):

    iou  = |a∩b| / |a∪b|            (temporal Jaccard on dilated intervals)
    ovl  = |a∩b| / min(|a|, |b|)    (overlap coefficient)
    strong containment: ovl ≥ τ_contain AND min/max length ≤ ρ_max
    t    = HYBRID: (1−λ)·iou + λ·ovl under containment, else iou
    pen  = exp(−|durA−durB| / κ_eff), relaxed to pen^containment_relax
           under containment (κ_eff grows to the coarser interval)
    sim  = t · pen

Edges where sim ≥ min_similarity AND raw dilated overlap ≥ min_overlap;
clusters = connected components; each cluster's event window = the span
of its members' (undilated) intervals. Defaults mirror the reference's
constants (DELTA_TOL 5 min, ALPHA 0.30, KAPPA 30 min, MIN_OVERLAP
3 min, HYBRID λ=0.6, τ=0.8, ρ=0.25, relax=0.45).

Pair generation is a start-ordered sweep (the reference's TreeSet
sweep, vectorized per anomaly) finished by union-find over the
surviving edges, in the caller's process: input and output are
driver-side pandas frames (20,000 anomalies cluster in ~1 s on one CPU).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

DELTA_TOL_MS = 5 * 60_000
ALPHA = 0.30            # min similarity for an edge
KAPPA_MS = 30 * 60_000
MIN_OVERLAP_MS = 3 * 60_000
LAM = 0.6
TAU_CONTAIN = 0.8
RHO_MAX = 0.25
CONTAINMENT_RELAX = 0.45
COARSE_INTERVAL_MS = 30 * 60_000


def pairwise_similarity(
    s1: float, e1: float, s2: float, e2: float,
    delta_ms: float = DELTA_TOL_MS,
    kappa_ms: float = KAPPA_MS,
    start_dilation1: float | None = None,
    start_dilation2: float | None = None,
    interval1_ms: float = 0.0,
    interval2_ms: float = 0.0,
) -> tuple[float, float]:
    """(similarity, raw dilated overlap ms) for one anomaly pair —
    scalar reference implementation (tested against the vectorized path).
    ``interval{1,2}_ms`` are the detectors' intervals: under strong
    containment the duration tolerance relaxes to the coarser interval
    (kappa_eff), matching ``_sweep_edges``."""
    d1 = delta_ms if start_dilation1 is None else start_dilation1
    d2 = delta_ms if start_dilation2 is None else start_dilation2
    a_lo, a_hi = s1 - d1, e1 + delta_ms
    b_lo, b_hi = s2 - d2, e2 + delta_ms
    ov = min(a_hi, b_hi) - max(a_lo, b_lo)
    if ov <= 0:
        return 0.0, 0.0
    la, lb = a_hi - a_lo, b_hi - b_lo
    iou = ov / (la + lb - ov)
    ovl = ov / min(la, lb)
    strong = (ovl >= TAU_CONTAIN) and (min(la, lb) / max(la, lb) <= RHO_MAX)
    t = (1.0 - LAM) * iou + LAM * ovl if strong else iou
    if t <= 0:
        return 0.0, ov
    dur_a, dur_b = e1 - s1, e2 - s2
    kappa_eff = max(kappa_ms, interval1_ms, interval2_ms) if strong else kappa_ms
    pen = np.exp(-abs(dur_a - dur_b) / kappa_eff)
    if strong:
        pen = 1.0 if CONTAINMENT_RELAX == 0.0 else pen**CONTAINMENT_RELAX
    return float(t * pen), float(ov)


def _sweep_edges(df: pd.DataFrame, delta_ms: float, kappa_ms: float,
                 min_similarity: float, min_overlap_ms: float) -> pd.DataFrame:
    """Start-ordered sweep over the anomalies → edge list
    (idx_a, idx_b) of pairs with sim ≥ threshold (vectorized per node)."""
    s = df["start_ms"].to_numpy(dtype=np.float64)
    e = df["end_ms"].to_numpy(dtype=np.float64)
    sd = df["start_dilation_ms"].to_numpy(dtype=np.float64) if "start_dilation_ms" in df else np.full(s.size, delta_ms)
    iv = df["_interval_ms"].to_numpy(dtype=np.float64) if "_interval_ms" in df else np.zeros(s.size)
    idx = df["_gid"].to_numpy()
    lo = s - sd
    hi = e + delta_ms
    order = np.lexsort((hi, lo))
    lo, hi, s, e, sd, iv, idx = lo[order], hi[order], s[order], e[order], sd[order], iv[order], idx[order]
    ea, eb = [], []
    for i in range(s.size):
        # candidates: later-starting intervals whose dilated start is before
        # this one's dilated end minus min_overlap
        j_hi = np.searchsorted(lo, hi[i] - min_overlap_ms, side="right")
        if j_hi <= i + 1:
            continue
        sl = slice(i + 1, j_hi)
        ov = np.minimum(hi[i], hi[sl]) - np.maximum(lo[i], lo[sl])
        la = hi[i] - lo[i]
        lb = hi[sl] - lo[sl]
        with np.errstate(divide="ignore", invalid="ignore"):
            iou = ov / (la + lb - ov)
            ovl = ov / np.minimum(la, lb)
        strong = (ovl >= TAU_CONTAIN) & (np.minimum(la, lb) / np.maximum(la, lb) <= RHO_MAX)
        t = np.where(strong, (1.0 - LAM) * iou + LAM * ovl, iou)
        # under strong containment, duration tolerance grows to the
        # coarser detector interval (the reference's kappaEff)
        kappa_eff = np.where(strong, np.maximum(kappa_ms, np.maximum(iv[i], iv[sl])), kappa_ms)
        pen = np.exp(-np.abs((e[i] - s[i]) - (e[sl] - s[sl])) / kappa_eff)
        pen = np.where(strong, pen**CONTAINMENT_RELAX, pen)
        sim = np.where(ov > 0, t * pen, 0.0)
        hit = np.flatnonzero((sim >= min_similarity) & (ov >= min_overlap_ms))
        if hit.size:
            ea.append(np.full(hit.size, idx[i]))
            eb.append(idx[i + 1 + hit])
    if not ea:
        return pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
    return pd.DataFrame({"a": np.concatenate(ea), "b": np.concatenate(eb)})


def generate_insights(clusters: pd.DataFrame, min_cluster_size: int = 2) -> pd.DataFrame:
    """D10 — ``ad/ml/InsightsGenerator.java:31-233``: summarize correlated
    clusters into human-readable insight rows (a final ``map_batches``-
    style projection over the clustering output)."""
    if len(clusters) == 0:
        return pd.DataFrame(
            columns=["cluster_id", "window_start_ms", "window_end_ms", "n_anomalies", "n_models", "n_configs", "summary"]
        )
    rows = []
    for cid, g in clusters.groupby("cluster_id"):
        if len(g) < min_cluster_size:
            continue
        models = sorted(g["model_id"].unique())
        configs = sorted(g["config_id"].unique())
        ws, we = int(g["window_start_ms"].min()), int(g["window_end_ms"].max())
        dur_min = (we - ws) / 60_000
        head = ", ".join(models[:3]) + ("…" if len(models) > 3 else "")
        rows.append(
            {
                "cluster_id": int(cid),
                "window_start_ms": ws,
                "window_end_ms": we,
                "n_anomalies": int(len(g)),
                "n_models": len(models),
                "n_configs": len(configs),
                "summary": (
                    f"Correlated incident: {len(g)} anomalies from {len(models)} models "
                    f"across {len(configs)} detector(s) within {dur_min:.0f} min ({head})"
                ),
            }
        )
    return pd.DataFrame(rows).sort_values("cluster_id").reset_index(drop=True)


class _UnionFind:
    def __init__(self, n: int):
        self.p = list(range(n))

    def find(self, x: int) -> int:
        while self.p[x] != x:
            self.p[x] = self.p[self.p[x]]
            x = self.p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[max(ra, rb)] = min(ra, rb)


def correlate_clusters(
    anomalies: pd.DataFrame,
    delta_ms: float = DELTA_TOL_MS,
    kappa_ms: float = KAPPA_MS,
    min_similarity: float = ALPHA,
    min_overlap_ms: float = MIN_OVERLAP_MS,
    include_singletons: bool = True,
    interval_ms_by_config: dict[str, int] | None = None,
) -> pd.DataFrame:
    """anomalies(model_id, config_id, start_ms, end_ms) → one row per
    anomaly with ``cluster_id``, ``window_start_ms``, ``window_end_ms``.

    ``interval_ms_by_config`` enables the coarse-detector start dilation
    (backwardDilation: coarse ≥30 min intervals extend the start by one
    interval)."""
    df = anomalies.reset_index(drop=True).copy()
    df["_gid"] = np.arange(len(df), dtype=np.int64)
    if interval_ms_by_config:
        iv = df["config_id"].map(interval_ms_by_config).fillna(0).to_numpy(dtype=np.float64)
        df["start_dilation_ms"] = np.where(iv >= COARSE_INTERVAL_MS, iv, delta_ms)
        df["_interval_ms"] = iv
    else:
        df["start_dilation_ms"] = float(delta_ms)
        df["_interval_ms"] = 0.0

    edges = _sweep_edges(df, delta_ms, kappa_ms, min_similarity, min_overlap_ms)
    uf = _UnionFind(len(df))
    for a, b in zip(edges["a"].astype(int), edges["b"].astype(int)):
        uf.union(a, b)
    roots = np.asarray([uf.find(i) for i in range(len(df))])
    df["cluster_id"] = roots
    win = df.groupby("cluster_id").agg(window_start_ms=("start_ms", "min"), window_end_ms=("end_ms", "max"))
    out = df.merge(win, on="cluster_id").drop(columns=["_gid", "start_dilation_ms", "_interval_ms"])
    if not include_singletons:
        sizes = out.groupby("cluster_id")["model_id"].transform("count")
        out = out[sizes > 1]
    # cluster members ordered by model id (CLUSTER_MEMBER_ORDER)
    return out.sort_values(["cluster_id", "model_id"]).reset_index(drop=True)
