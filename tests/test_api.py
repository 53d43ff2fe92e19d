"""DetectorAPI facade (§2.G) + result sink (A16/E2)."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anomaly_detection_ray.config import DetectorConfig, FeatureSpec


@pytest.fixture(scope="module")
def events_file(tmp_path_factory):
    from anomaly_detection_ray.sources.streams import generate_interval_stream

    t = generate_interval_stream(n_entities=4, n_windows=150, interval_s=600, seed=17,
                                 anomaly_prob=0.02, events_per_window=2)
    p = tmp_path_factory.mktemp("apievents") / "events.parquet"
    pq.write_table(t, str(p))
    return str(p)


def _cfg():
    return DetectorConfig(
        config_id="api-det",
        interval_s=600,
        shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),),
        category_fields=("entity",),
        num_trees=10,
        sample_size=64,
    )


def test_validate_and_suggest(ray_session, events_file):
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    api = DetectorAPI(_cfg(), events_file)
    v = api.validate()
    assert v["ok"], v["issues"]
    # events every 300s (2/window) → suggested interval ≈ 300
    assert 200 <= v["suggested_interval_s"] <= 400
    assert v["window_delay_s"] in (119, 120)  # int(600·0.2) with float repr
    assert all(d > 0.5 for d in v["shingle_density"].values())


def _windows(events_path: str, cats: list[str], interval_ms: int) -> pd.DataFrame:
    """Whole events file in pandas: entity key columns + window start."""
    t = pq.read_table(events_path).to_pandas()
    ts = t["ts"].astype("datetime64[ms]").astype("int64")
    return t.assign(window_start_ms=ts - ts % interval_ms)[[*cats, "window_start_ms", "value"]]


def _pandas_density(events_path: str, cats: list[str], interval_ms: int, s: int) -> dict:
    """Shingle density per entity: the share of an entity's windows
    whose ``s``-window span back from them is fully present."""
    out = {}
    frame = _windows(events_path, cats, interval_ms)
    for k, g in frame.groupby(cats) if cats else [((), frame)]:
        have = set(g["window_start_ms"])
        full = sum(all(w - i * interval_ms in have for i in range(s)) for w in have)
        out[str(tuple(str(v) for v in k))] = full / len(have)
    return out


def _pandas_period(events_path: str, cats: list[str], interval_ms: int,
                   max_period: int = 96) -> int:
    """Length-weighted vote of each entity's autocorrelation peak over
    its windowed mean value (direct correlation, lags 2..n/2)."""
    votes: dict[int, int] = {}
    frame = _windows(events_path, cats, interval_ms)
    for _, g in frame.groupby(cats) if cats else [((), frame)]:
        x = g.groupby("window_start_ms")["value"].mean().sort_index().to_numpy()
        n = x.size
        x = x - x.mean()
        acf = np.correlate(x, x, mode="full")[n - 1:] / np.dot(x, x)
        hi = min(max_period, n // 2)
        lag = int(np.argmax(acf[2:hi + 1])) + 2
        p = lag if acf[lag] >= 0.3 else 0
        votes[p] = votes.get(p, 0) + n
    return max(votes, key=votes.get)


def _forced_parts(monkeypatch) -> list[int]:
    """Force the per-entity exchange to P > 1 parts whatever the
    session's CPU count (the fixtures' map sides are tens of KB; 4 KB a
    part). Returns the part counts the exchange then used."""
    from anomaly_detection_ray.stages import exchange

    used, real = [], exchange.exchange

    def spy(inputs, split, split_arg, n_parts, *rest):
        used.append(n_parts)
        return real(inputs, split, split_arg, n_parts, *rest)

    monkeypatch.setattr(exchange, "PART_BYTES", 4 << 10)
    monkeypatch.setattr(exchange, "exchange", spy)
    return used


def _spread(events_path: str, cats: list[str], used: list[int]) -> None:
    """Each forced exchange had P ≥ 2 parts and put entities in ≥ 2."""
    from anomaly_detection_ray.stages.exchange import split_by_keys

    keys = pa.Table.from_pandas(_windows(events_path, cats, 600_000)[cats].drop_duplicates(),
                                preserve_index=False)
    assert used and min(used) >= 2, used
    for n_parts in used:
        assert sum(1 for p in split_by_keys(keys, (tuple(cats), n_parts)) if p.num_rows) >= 2


def test_validate_suggest_coarse_parity(ray_session, events_file, monkeypatch):
    """The per-entity exchange (hash(entity) % P parts, P forced ≥ 2,
    entities iterated inside each part) gives the densities and the
    period that pandas computes over the whole events file."""
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    used = _forced_parts(monkeypatch)
    api = DetectorAPI(_cfg(), events_file)
    density = _pandas_density(events_file, ["entity"], 600_000, 8)
    assert len(density) == 4
    assert api.validate()["shingle_density"] == density
    period = api.suggest_period()
    assert period == _pandas_period(events_file, ["entity"], 600_000) and period > 0
    _spread(events_file, ["entity"], used)


def test_validate_coarse_parity_multi_category(ray_session, events_file, tmp_path, monkeypatch):
    """Exchange keys concatenate MULTIPLE category fields (\\x1f-joined
    in ``stages.exchange.split_by_keys``); with a composite entity key and P
    forced ≥ 2 the per-entity pass still matches pandas over the whole
    events file."""
    import pyarrow.parquet as pq_

    from anomaly_detection_ray.pipelines.api import DetectorAPI

    t = pq_.read_table(events_file)
    region = pa.array(["r" + str(i % 3) for i in range(t.num_rows)])
    p = str(tmp_path / "events2.parquet")
    pq_.write_table(t.append_column("region", region), p)
    cfg = DetectorConfig(
        config_id="api-det2", interval_s=600, shingle_size=8,
        features=(FeatureSpec("value_avg", "value", "avg"),),
        category_fields=("entity", "region"), num_trees=10, sample_size=64,
    )
    used = _forced_parts(monkeypatch)
    api = DetectorAPI(cfg, p)
    a = api.shingle_density()
    assert a == _pandas_density(p, ["entity", "region"], 600_000, 8)
    assert len(a) == 12  # 4 entities × 3 regions
    assert api.suggest_period() == _pandas_period(p, ["entity", "region"], 600_000)
    _spread(p, ["entity", "region"], used)


def test_empty_input_density_and_period(ray_session, events_file, tmp_path):
    """An events file without rows, with and without category fields:
    no densities, no period and a zero-row preview with its columns,
    from the typed empty result of the per-entity exchange (without
    category fields each raised ``KeyError: 'window_start_ms'`` on a
    0×0 frame)."""
    import dataclasses

    from anomaly_detection_ray.pipelines.api import DetectorAPI

    p = str(tmp_path / "empty.parquet")
    pq.write_table(pq.read_table(events_file).slice(0, 0), p)
    for cfg in (_cfg(), dataclasses.replace(_cfg(), category_fields=())):
        api = DetectorAPI(cfg, p)
        assert api.shingle_density() == {}
        assert api.suggest_period() == 0
        pv = api.preview()
        assert len(pv) == 0 and list(pv.columns) == [
            "window_end_ms", "anomaly_score", "anomaly_grade", *cfg.category_fields]


def test_density_and_period_without_categories(ray_session, events_file, monkeypatch):
    """Without category fields the whole input is one stream (one model,
    keyed ``"()"``): its density and period are pandas' over the whole
    events file, through the same per-entity exchange as with them."""
    import dataclasses

    from anomaly_detection_ray.pipelines.api import DetectorAPI

    _forced_parts(monkeypatch)
    api = DetectorAPI(dataclasses.replace(_cfg(), category_fields=()), events_file)
    density = api.shingle_density()
    assert density == _pandas_density(events_file, [], 600_000, 8) and list(density) == ["()"]
    assert api.suggest_period() == _pandas_period(events_file, [], 600_000)


def test_preview_deterministic(ray_session, events_file):
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    api = DetectorAPI(_cfg(), events_file)
    a = api.preview(max_entities=2)
    b = api.preview(max_entities=2)
    assert len(a) > 0
    assert np.array_equal(a["anomaly_score"].to_numpy(), b["anomaly_score"].to_numpy())


def test_preview_batch_scoring_equals_per_point(ray_session, events_file):
    """preview() scores each entity with ONE process_many call; recompute
    one entity with the per-point process() loop it replaced and require
    bit-equality (the reference's preview is sequential per point,
    AnomalyDetectorRunner; our batch path is batching-independent)."""
    from anomaly_detection_ray.functions.imputation import linear_uniform_impute
    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.stages.window import window_aggregate
    from anomaly_detection_ray.state.model import TRCFModel

    cfg = _cfg()
    api = DetectorAPI(cfg, events_file)
    got = api.preview(max_entities=1)
    ent = got[cfg.category_fields[0]].iloc[0]
    feats = cfg.feature_names()
    agg = window_aggregate(api._ds(pruned=True), cfg, ts_col=api.ts_col).to_pandas()
    g = agg[agg[cfg.category_fields[0]] == ent].sort_values("window_start_ms")
    sampled = g.iloc[:: max(1, len(g) // 300 * 4 and 4)]
    vals = linear_uniform_impute(sampled[feats].to_numpy(), len(g))
    model = TRCFModel(cfg, f"preview_{(ent,)}")
    rows = [
        (we, r["anomaly_score"], r["anomaly_grade"])
        for i, we in enumerate(g["window_end_ms"].to_numpy())
        if (r := model.process(vals[i], int(we))) is not None
    ]
    want = np.asarray([r[1] for r in rows])
    have = got[got[cfg.category_fields[0]] == ent]["anomaly_score"].to_numpy()
    assert np.array_equal(have, want)


def test_run_once_writes_partitioned_results(ray_session, events_file, tmp_path):
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    api = DetectorAPI(_cfg(), events_file)
    out = str(tmp_path / "results")
    api.run_once(results_dir=out)
    parts = glob.glob(os.path.join(out, "result_date=*"))
    assert len(parts) >= 1  # date-partitioned layout
    total = sum(pq.read_table(f).num_rows for f in glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True))
    assert total > 100


def test_sink_keep_anomalies(ray_session, events_file, tmp_path):
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.stages.sink import write_results

    res = detect(rd.read_parquet(events_file), _cfg())
    out = str(tmp_path / "anoms")
    write_results(res, out, keep="anomalies")
    tbl = pa.concat_tables(
        pq.read_table(f) for f in glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True)
    ) if glob.glob(os.path.join(out, "**", "*.parquet"), recursive=True) else None
    if tbl is not None and tbl.num_rows:
        assert (np.asarray(tbl["anomaly_grade"]) > 0).all()
    with pytest.raises(ValueError):
        write_results(res, out, keep="bogus")


def test_profile_and_top(ray_session, events_file):
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    api = DetectorAPI(_cfg(), events_file)
    p = api.profile()
    assert p["n_entities"] == 4 and p["features"] == ["value_avg"]
    top = api.top_anomalies(k=2)
    assert len(top) == 2 and "max_anomaly_grade" in top.columns


def test_nested_result_schema(ray_session, events_file):
    """B10: nested anomaly-results.json-shaped projection."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.stages.scorer import to_nested_results

    res = detect(rd.read_parquet(events_file), _cfg())
    nested = to_nested_results(res, _cfg()).to_pandas()
    assert {"detector_id", "schema_version", "feature_data", "entity",
            "data_start_time", "data_end_time", "anomaly_grade"} <= set(nested.columns)
    row = nested.iloc[0]
    assert row["schema_version"] == 7
    assert row["feature_data"][0]["feature_name"] == "value_avg"
    assert row["entity"][0]["name"] == "entity"
    assert row["data_end_time"] - row["data_start_time"] == 600_000


def test_nested_result_enrichment_fields(ray_session, events_file):
    """B10 round 2: detailed scoring carries relevant_attribution /
    expected_values / past_values into the nested projection
    (anomaly-results.json:93-157, ThresholdingResult.java:323-374)."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.stages.scorer import to_nested_results

    res = detect(rd.read_parquet(events_file), _cfg(), detailed=True)
    nested = to_nested_results(res, _cfg()).to_pandas()
    assert {"relevant_attribution", "expected_values", "past_values"} <= set(nested.columns)
    row = nested.sort_values("anomaly_score", ascending=False).iloc[0]
    assert row["relevant_attribution"][0]["feature_id"] == "value_avg"
    # single feature → its attribution share is 1 on any scored row
    assert row["relevant_attribution"][0]["data"] == pytest.approx(1.0)
    ev = row["expected_values"][0]
    assert ev["likelihood"] == pytest.approx(0.99)
    assert ev["value_list"][0]["feature_id"] == "value_avg"
    assert np.isfinite(ev["value_list"][0]["data"])


def test_profile_model_states_and_entity(ray_session, events_file, tmp_path):
    """ProfileRunner/EntityProfileRunner analogue: per-model init
    progress, byte sizes and per-entity state from checkpoint manifests."""
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    api = DetectorAPI(_cfg(), events_file)
    ck = str(tmp_path / "ck")
    api.run_once(checkpoint_dir=ck).materialize()
    p = api.profile(checkpoint_dir=ck)
    assert p["n_models"] == p["n_entities"] == 4
    assert p["total_model_bytes"] > 0
    assert p["init_progress"] == 1.0
    assert len(p["models"]) == 4 and all(m["model_size_bytes"] > 0 for m in p["models"])
    ent = api.profile(checkpoint_dir=ck, entity={"entity": "entity000"})
    assert ent["entity_state"] == "RUNNING" and ent["entity_model"]["n_points"] > 32
    # EntityProfileRunner depth: active flag, model-side last window,
    # data-side last sample; the model is caught up to the data
    assert ent["is_active"] is True
    assert ent["entity_model"]["model_size_bytes"] > 0
    assert ent["last_active_ms"] and ent["last_sample_ms"]
    assert 0 <= ent["last_active_ms"] - ent["last_sample_ms"] < 600_000
    missing = api.profile(checkpoint_dir=ck, entity={"entity": "nope"})
    assert missing["entity_state"] == "NOT_STARTED"
    assert missing["is_active"] is False and missing["last_active_ms"] is None
    assert missing["last_sample_ms"] is None


def test_validate_feature_checks(ray_session, events_file):
    """_validate breadth: source-column existence + live NaN-rate check."""
    from anomaly_detection_ray.config import DetectorConfig, FeatureSpec
    from anomaly_detection_ray.pipelines.api import DetectorAPI

    ok = DetectorAPI(_cfg(), events_file).validate()
    assert ok["feature_nan_rate"]["value_avg"] < 0.5
    bad_cfg = DetectorConfig(
        config_id="bad", interval_s=600, category_fields=("entity",),
        features=(FeatureSpec("ghost_avg", "no_such_column", "avg"),),
    )
    bad = DetectorAPI(bad_cfg, events_file).validate()
    assert not bad["ok"] and any("missing from input" in i for i in bad["issues"])


def test_sink_soft_pressure_shedding(ray_session, events_file, tmp_path):
    """A16 soft-pressure policy: anomalies always survive; grade-0 rows
    shed deterministically at ~soft_keep_fraction (same rows on rerun —
    the reference drops them randomly, ADResultBulkTransportAction
    .java:106-140)."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.stages.sink import write_results

    res = detect(rd.read_parquet(events_file), _cfg()).materialize()
    full = res.to_pandas()
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    write_results(res, out1, keep="soft", soft_keep_fraction=0.5)
    write_results(res, out2, keep="soft", soft_keep_fraction=0.5)

    def load(d):
        t = pq.read_table(glob.glob(d + "/**/*.parquet", recursive=True))
        return t.to_pandas().sort_values(["model_id", "window_end_ms"]).reset_index(drop=True)

    a, b = load(out1), load(out2)
    pd.testing.assert_frame_equal(a, b)  # deterministic shedding
    n_anom = int((full["anomaly_grade"] > 0).sum())
    assert int((a["anomaly_grade"] > 0).sum()) == n_anom  # anomalies all kept
    zero_kept = (a["anomaly_grade"] == 0).sum() / max(1, (full["anomaly_grade"] == 0).sum())
    assert 0.35 < zero_kept < 0.65


def test_sink_rerun_replaces_partitions(ray_session, events_file, tmp_path):
    """Rerunning the result sink for the same days REPLACES their
    partitions instead of appending duplicate files."""
    import glob

    import pyarrow.parquet as pq
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect
    from anomaly_detection_ray.stages.sink import write_results

    res = detect(rd.read_parquet(events_file), _cfg()).materialize()
    out = str(tmp_path / "res")
    write_results(res, out)
    first = pq.read_table(glob.glob(out + "/**/*.parquet", recursive=True))
    write_results(res, out)  # rerun over the same days
    second = pq.read_table(glob.glob(out + "/**/*.parquet", recursive=True))
    assert second.num_rows == first.num_rows  # no duplicate accumulation


def test_needed_columns_pruned_read(ray_session):
    """detect()/forecast() read sites pass columns= so the parquet scan
    decodes only ts + categories + feature source columns (Ray does not
    push select_columns into the read — VERDICT r2 item #5)."""
    import ray.data as rd

    from anomaly_detection_ray.pipelines.detector import detect, needed_columns
    from anomaly_detection_ray.pipelines.queries import detector_config

    cfg = detector_config()
    assert needed_columns(cfg) == ["event_type", "ts", "value"]
    ds = rd.read_parquet("/root/testdata/sf0.001/events.parquet", columns=needed_columns(cfg))
    assert sorted(ds.schema().names) == ["event_type", "ts", "value"]
    # the pruned read scores identically to the full read
    key = ["model_id", "window_end_ms"]
    pruned = detect(ds, cfg).to_pandas().sort_values(key).reset_index(drop=True)
    full = detect(rd.read_parquet("/root/testdata/sf0.001/events.parquet"), cfg)\
        .to_pandas().sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(pruned, full[pruned.columns])


def test_result_index_rollover_and_ttl(ray_session, events_file, tmp_path):
    """ADIndexManagement-style rollover: the active generation rolls when
    ANY condition (min-age days / min-size bytes / min-docs) is met, new
    writes land in the new generation, and TTL gc deletes rolled-off
    generations only (IndexManagement.java:1306-1395)."""
    from anomaly_detection_ray.pipelines.api import DetectorAPI
    from anomaly_detection_ray.stages.sink import ResultIndexManager, write_results

    api = DetectorAPI(_cfg(), events_file)
    res = api.run_once()

    # --- size-based rollover ---
    mgr = ResultIndexManager(str(tmp_path / "by_size"), min_age_days=None,
                             min_size_bytes=1)  # any write exceeds 1 byte
    g1 = mgr.active(now_day=100)
    assert not mgr.maybe_rollover(now_day=100)  # empty index never rolls
    write_results(res, g1, mode="append")
    assert mgr.maybe_rollover(now_day=100)
    g2 = mgr.active(now_day=100)
    assert g2 != g1 and mgr.generations() == ["gen-000001", "gen-000002"]
    write_results(res, g2, mode="append")  # new writes land in gen 2
    assert mgr.stats(g2)["docs"] == mgr.stats(g1)["docs"] > 0

    # --- age-based rollover ---
    mga = ResultIndexManager(str(tmp_path / "by_age"), min_age_days=7)
    a1 = mga.active(now_day=100)
    write_results(res, a1, mode="append")
    assert not mga.maybe_rollover(now_day=106)  # younger than min_age
    assert mga.maybe_rollover(now_day=107)
    assert len(mga.generations()) == 2

    # --- doc-count rollover + TTL gc (active generation never deletes) ---
    mgd = ResultIndexManager(str(tmp_path / "by_docs"), min_age_days=None, min_docs=1)
    d1 = mgd.active(now_day=100)
    write_results(res, d1, mode="append")
    assert mgd.maybe_rollover(now_day=100)
    assert mgd.gc(now_day=100, ttl_days=30) == []            # too young
    assert mgd.gc(now_day=200, ttl_days=30) == ["gen-000001"]
    assert mgd.generations() == ["gen-000002"]               # active survives
