"""Detector configuration — the analogue of the reference's
``timeseries/model/Config.java:92-133`` / ``ad/model/AnomalyDetector.java``.

A plain dataclass (not a Dataset): broadcast to stages via
``fn_constructor_kwargs`` (SURVEY.md §2.D5 — broadcast-small-side).
All defaults mirror the reference's constants
(``TimeSeriesSettings.java:195-220``, ``Config.java:862-864``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FeatureSpec:
    """One named feature aggregation (``timeseries/model/Feature.java:43-55``).

    ``agg`` ∈ {min, max, sum, avg, value_count, cardinality, percentile,
    cardinality_hll, percentile_tdigest} — the single-valued metric aggs
    the reference accepts at parse time (``ParseUtils.java:148-306``,
    ``AbstractRetriever.java:35-89``); ``cardinality`` and ``percentile``
    are exact, the ``_hll``/``_tdigest`` variants fixed-size sketches.
    Another value raises when a window plan is built.
    """

    name: str
    column: str
    agg: str = "avg"
    percentile: float = 0.5  # only for agg == "percentile"


@dataclass(frozen=True)
class DetectorConfig:
    config_id: str
    interval_s: int = 600               # detector interval (fixed tumbling window)
    window_delay_s: int = 0             # watermark lag (ResultProcessor.java:424-435)
    shingle_size: int = 8               # TimeSeriesSettings.java: DEFAULT_SHINGLE_SIZE
    features: tuple[FeatureSpec, ...] = ()
    category_fields: tuple[str, ...] = ()   # ≤ 2 in the reference
    # --- model constants (ADColdStart.java:181-226) ---
    num_trees: int = 30
    sample_size: int = 256
    output_after: int = 32              # max(shingle, 32): scores emitted after this many points
    time_decay: float = 1.0 / 2560.0    # 1/recencyEmphasis
    anomaly_rate: float = 1.0 - 0.995
    seed: int = 0                       # preview path uses randomSeed(0) — deterministic
    # --- imputation (ImputationMethod.java) ---
    imputation: str = "zero"            # zero | fixed | previous | linear
    fixed_value: float = 0.0
    # --- thresholding (HybridThresholdingModel.java) ---
    # NOTE: the reference's MIN_SCORE=0.4 is on the AWS RCF library's
    # expected-inverse-depth scale (normal ≈ 1). Our expected-displacement
    # / log2(sample) scale puts normal traffic at ≈ 0.2–1.0 and clear
    # anomalies ≥ 5, so the equivalent floor stays 2.0 (validated by the
    # precision/recall floor tests in tests/test_detector.py).
    min_score: float = 2.0
    threshold_p: float = 0.995
    max_sketch_size: int = 10_000
    history_intervals: int = 40
    # --- suppression rules (ad/model/Rule.java, ThresholdType.java);
    # applied inside ScoreGroups against the scorer's expected values ---
    rules: tuple = ()
    # --- user filter_query (Config.java:99): wrapped around every feature
    # query (ParseUtils.generateInternalFeatureQuery) — here a row
    # predicate applied to the events source before windowing
    # (functions/rowfilter.py compiles the same JSON DSL) ---
    filter_query: dict | None = None

    def model_output_after(self) -> int:
        return max(self.shingle_size, self.output_after)

    def feature_names(self) -> list[str]:
        return [f.name for f in self.features]


DEFAULT_FEATURE = FeatureSpec(name="value_avg", column="value", agg="avg")
