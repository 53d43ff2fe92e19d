"""Scoring stage — SURVEY.md §2.C1/C2/C4.

:class:`ScoreGroups` is the reducer of detect()'s exchange
(``stages.exchange.exchange_by_key``): one call = one part, the
time-ordered slices of every model hashed to it. The hash partitioning
replaces the reference's hash ring + per-model locks
(``HashRing.java:61-199``, ``RealTimeInferencer.java:225-238``): a
model's samples reach one reducer of one run, in window order (the §2.F
ordering requirement; models are independent). The in-group loop is
``stages.window.per_entity``, shared with forecasting and validation:
each model's windows arrive as an Arrow slice, and its result rows are
the slice's kept rows with the result columns appended, the same code
for a slice without rows (one typed zero-row table when a part holds
no model). In a job tick the same reducer task then writes its part's
result rows (``stages.sink.write_part``), after every model of the part
has been scored and its checkpoint saved (ROADMAP item 1).

The stage keeps no state past one group: each model is restored from
the ``checkpoint_dir`` (or cold-started), scored and saved before the
next one is touched, so at most one forest is live per task. Because
nothing outlives a call, the stage runs as plain tasks in the
session's warm worker processes — an actor pool would start a fresh
process, and pay all its imports, on every run. A later pipeline
run over new windows continues the same streams (realtime micro-batch
semantics, one run per interval tick); without a ``checkpoint_dir``
every run is a cold start over its input range (historical/preview
semantics, ``ADBatchTaskRunner`` / ``AnomalyDetectorRunner``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import DetectorConfig
from ..state.checkpoint import CheckpointStore
from ..state.model import TRCFModel
from .window import per_entity

RESULT_COLUMNS = ["anomaly_score", "anomaly_grade", "confidence", "is_anomaly"]

# In-run chunking: one model's slice of a group can span its whole
# history (a historical run over years of 1-min intervals), so the
# derived work arrays (feature matrix, score/attribution outputs, result
# copies) are bounded by CHUNK_ROWS rows instead of the history length.
# The model streams through the chunks in order, so split ≡ whole.
CHUNK_ROWS = 65536


def to_nested_results(results_ds, config: DetectorConfig, schema_version: int = 7):
    """B10: project flat result rows into the reference's fixed nested
    result schema (``src/main/resources/mappings/anomaly-results.json``:
    ``_meta.schema_version: 7``, ``feature_data: list<struct<feature_id,
    feature_name, data>>``, entity as list<struct<name, value>>,
    epoch-millis time fields). The flat layout stays the engine-native
    one; this is the compatibility projection (the reference's custom-
    index "flattening" run in reverse)."""
    import pyarrow.compute as pc

    feats = list(config.feature_names())
    cats = list(config.category_fields)
    config_id = config.config_id
    k = len(feats)

    def _interleave_float(b: pa.Table, cols: list[str]) -> pa.Array:
        """Row-major interleave of float columns → flat values array for a
        list<struct> of one entry per column per row (vectorized — the
        round-1 per-row dict comprehension was a Python loop in the hot
        path)."""
        mats = [pc.cast(b[c], pa.float64()).to_numpy(zero_copy_only=False) for c in cols]
        return pa.array(np.column_stack(mats).ravel())

    def _feature_list(b: pa.Table, cols: list[str], names: list[str]) -> pa.ListArray:
        n = b.num_rows
        fid = pa.array(feats * n, type=pa.string())
        data = _interleave_float(b, cols)
        struct = pa.StructArray.from_arrays([fid, data], names=names)
        offs = pa.array(np.arange(n + 1, dtype=np.int32) * k, pa.int32())
        return pa.ListArray.from_arrays(offs, struct)

    def project(b: pa.Table) -> pa.Table:
        n = b.num_rows
        # explicit types: a zero-row batch would otherwise infer null-typed
        # arrays whose struct schema disagrees with non-empty blocks'
        fid = pa.array(feats * n, type=pa.string())
        fd_struct = pa.StructArray.from_arrays(
            [fid, fid, _interleave_float(b, feats)],
            names=["feature_id", "feature_name", "data"],
        )
        offs = pa.array(np.arange(n + 1, dtype=np.int32) * k, pa.int32())
        fd = pa.ListArray.from_arrays(offs, fd_struct)
        if cats:
            svals = np.column_stack(
                [pc.cast(b[c], pa.string()).to_numpy(zero_copy_only=False) for c in cats]
            ).ravel()
            ent_struct = pa.StructArray.from_arrays(
                [pa.array(cats * n, type=pa.string()), pa.array(svals, type=pa.string())], names=["name", "value"]
            )
            ent = pa.ListArray.from_arrays(
                pa.array(np.arange(n + 1, dtype=np.int32) * len(cats), pa.int32()), ent_struct
            )
        else:
            ent = pa.ListArray.from_arrays(
                pa.array(np.zeros(n + 1, dtype=np.int32), pa.int32()),
                pa.array([], type=pa.struct([("name", pa.string()), ("value", pa.string())])),
            )
        out = {
            "detector_id": pa.array([config_id] * n, type=pa.string()),
            "schema_version": pa.array([schema_version] * n, pa.int32()),
            "model_id": b["model_id"],
            "entity": ent,
            "feature_data": fd,
            "data_start_time": b["window_start_ms"],
            "data_end_time": b["window_end_ms"],
            "anomaly_score": b["anomaly_score"],
            "anomaly_grade": b["anomaly_grade"],
            "confidence": b["confidence"],
        }
        # enrichment fields (anomaly-results.json:93-157) when the scorer
        # ran detailed: relevant_attribution, expected_values (one
        # candidate whose likelihood = confidence), past_values
        if f"{feats[0]}_attribution" in b.column_names:
            out["relevant_attribution"] = _feature_list(
                b, [f"{f}_attribution" for f in feats], ["feature_id", "data"]
            )
            out["past_values"] = _feature_list(
                b, [f"{f}_past" for f in feats], ["feature_id", "data"]
            )
            inner = _feature_list(b, [f"{f}_expected" for f in feats], ["feature_id", "data"])
            ev_struct = pa.StructArray.from_arrays(
                [pc.cast(b["confidence"], pa.float64()).combine_chunks(), inner],
                names=["likelihood", "value_list"],
            )
            out["expected_values"] = pa.ListArray.from_arrays(
                pa.array(np.arange(n + 1, dtype=np.int32), pa.int32()), ev_struct
            )
        return pa.table(out)

    return results_ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


class ScoreGroups:
    """One exchange part's scorer (see the module docstring).
    ``detailed=True`` adds the reference's result-row enrichment
    (``ThresholdingResult.java:323-374``, ``ModelUtil.java:96-133``):
    per-feature ``{f}_expected`` (forest
    leaf-consensus normal value), ``{f}_attribution`` (share of the
    anomaly score, normalized to sum 1 like relevant_attribution) and
    ``{f}_past`` (previous window's actual). When ``config.rules`` is
    non-empty the suppression rules (B9, ``IgnoreSimilarExtractor``)
    are applied against the expected values: grades within the rule
    margin of expected are zeroed and flagged ``suppressed_by_rule``."""

    def __init__(self, config: DetectorConfig, checkpoint_dir: str | None = None,
                 detailed: bool = False):
        self.config = config
        self.store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None
        self.detailed = bool(detailed) or bool(config.rules)

    def __call__(self, group: pa.Table) -> pa.Table:
        # The group holds MANY models (see ``stages.window.per_entity``);
        # each is scored independently, in model_id order, each in
        # window order.
        c = self.config
        return per_entity(group, ["model_id"], self._score_model, c, carry=c.category_fields)

    def _score_model(self, sub: pa.Table) -> pa.Table:
        # one model's windows, in order; a zero-row slice (no model left
        # in the part) runs the same code on a model neither loaded nor
        # saved, so it returns the typed zero-row result
        c = self.config
        store = self.store if sub.num_rows else None
        model_id = sub["model_id"][0].as_py() if sub.num_rows else ""
        model = store.load(model_id) if store is not None else None
        if model is None:
            model = TRCFModel(c, model_id)

        fnames = list(c.feature_names())
        parts = [
            self._score_chunk(model, sub.slice(lo, CHUNK_ROWS), fnames)
            for lo in range(0, max(sub.num_rows, 1), CHUNK_ROWS)
        ]

        if store is not None:
            store.save(model)
        return pa.concat_tables(parts)

    def _score_chunk(self, model, sub: pa.Table, fnames: list[str]) -> pa.Table:
        feats = np.empty((sub.num_rows, len(fnames)))
        for k, f in enumerate(fnames):
            feats[:, k] = sub[f].to_numpy()  # a null feature reads NaN
        ends = sub["window_end_ms"].to_numpy()
        out = model.process_many(feats, ends, detailed=self.detailed)

        keep = out["keep"]
        cols = {k: out[k][keep] for k in RESULT_COLUMNS}
        if self.detailed:
            score = cols["anomaly_score"]
            attr = out["attribution"][keep]
            with np.errstate(invalid="ignore", divide="ignore"):
                attr_norm = np.where(score[:, None] > 0, attr / np.where(score[:, None] > 0, score[:, None], 1.0), 0.0)
            expected, past = out["expected"][keep], out["past"][keep]
            for k, f in enumerate(fnames):
                cols[f"{f}_expected"] = expected[:, k]
                cols[f"{f}_attribution"] = attr_norm[:, k]
                cols[f"{f}_past"] = past[:, k]
        res = sub.filter(keep)
        for name, v in cols.items():
            res = res.append_column(name, pa.array(v, from_pandas=True))
        if self.config.rules:
            from ..functions.rules import apply_rules

            res = apply_rules(res, list(self.config.rules), {f: f"{f}_expected" for f in fnames})
        return res
