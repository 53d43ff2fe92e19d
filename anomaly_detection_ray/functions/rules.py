"""Suppression rules — SURVEY.md §2.B9.

Reimplements the semantics of ``ad/model/Rule.java:1-116`` /
``ThresholdType.java:16-93`` / ``ad/ml/IgnoreSimilarExtractor.java``:
a detector's rules (Action=IGNORE_ANOMALY, conditions over features)
compile to per-feature ignore-near-expected margins; a flagged window is
suppressed when the actual value is within the margin of the expected
value on the rule's side:

- ACTUAL_OVER_EXPECTED_MARGIN:  ignore if 0 < actual−expected ≤ margin
- EXPECTED_OVER_ACTUAL_MARGIN:  ignore if 0 < expected−actual ≤ margin
- ACTUAL_OVER_EXPECTED_RATIO:   ignore if 0 < actual−expected ≤ ratio·|expected|
- EXPECTED_OVER_ACTUAL_RATIO:   ignore if 0 < expected−actual ≤ ratio·|expected|

The reference feeds these thresholds into the RCF library
(``ADColdStart.java:304-324``); here they post-process result rows.
Wiring: set ``DetectorConfig.rules`` and ``ScoreGroups`` applies them
against the scorer's own per-feature expected values
(``{feature}_expected`` columns from the forest's leaf consensus);
``apply_rules`` also accepts any caller-supplied expected column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

THRESHOLD_TYPES = (
    "actual_over_expected_margin",
    "expected_over_actual_margin",
    "actual_over_expected_ratio",
    "expected_over_actual_ratio",
)


@dataclass(frozen=True)
class Rule:
    feature_name: str
    threshold_type: str
    value: float  # margin (absolute) or ratio (relative)

    def __post_init__(self):
        if self.threshold_type not in THRESHOLD_TYPES:
            raise ValueError(f"unknown threshold type {self.threshold_type!r}")


def suppressed_mask(actual: np.ndarray, expected: np.ndarray, rule: Rule) -> np.ndarray:
    """True where the rule says to ignore the anomaly."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    diff = actual - expected
    t = rule.threshold_type
    if t == "actual_over_expected_margin":
        return (diff > 0) & (diff <= rule.value)
    if t == "expected_over_actual_margin":
        return (-diff > 0) & (-diff <= rule.value)
    if t == "actual_over_expected_ratio":
        return (diff > 0) & (diff <= rule.value * np.abs(expected))
    return (-diff > 0) & (-diff <= rule.value * np.abs(expected))


def apply_rules(results: pa.Table, rules: list[Rule], expected_cols: dict[str, str]) -> pa.Table:
    """Arrow table of result rows → the same rows with grades zeroed
    (and ``is_anomaly`` cleared) where ANY rule suppresses (rules OR
    together, like the reference's ignore arrays), plus a
    ``suppressed_by_rule`` column. ``expected_cols`` maps feature_name →
    column holding its expected value."""
    mask = np.zeros(results.num_rows, dtype=bool)
    for r in rules:
        mask |= suppressed_mask(results[r.feature_name].to_numpy(),
                                results[expected_cols[r.feature_name]].to_numpy(), r)
    grade = results["anomaly_grade"].to_numpy()
    mask &= grade > 0
    for name, v in (("anomaly_grade", np.where(mask, 0.0, grade)),
                    ("is_anomaly", results["is_anomaly"].to_numpy() & ~mask)):
        results = results.set_column(results.schema.get_field_index(name), name, pa.array(v))
    return results.append_column("suppressed_by_rule", pa.array(mask))
