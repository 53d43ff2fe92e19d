"""Result sink — SURVEY.md §2.A16 / §2.E2.

The reference bulk-writes results to a (rollover-managed) index with
pressure-based shedding (``ADResultBulkTransportAction.java:106-140``:
under soft pressure, grade-0 results are randomly dropped; under hard
pressure only anomalies are kept). Here each exchange reducer writes
its own part's rows (:func:`write_part`, one pyarrow writer: no Ray
Data execution, no driver-side collection), so there is no queue to
apply backpressure to; the load-shedding knob survives as an explicit
``keep`` policy, and the rollover/partitioning concern becomes a
date-partitioned Parquet layout (one directory per day → reruns can
replace a day atomically; never one giant file)."""

from __future__ import annotations

import contextlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def result_day(t: pa.Table) -> np.ndarray:
    """A detector result row's day: its window end, in epoch days."""
    return t["window_end_ms"].to_numpy() // 86_400_000


def forecast_day(t: pa.Table) -> np.ndarray:
    """A forecast row's day: its forecast's ORIGIN (the last observed
    window), in epoch days."""
    start, end = t["forecast_window_start_ms"].to_numpy(), t["forecast_window_end_ms"].to_numpy()
    return (start - (t["horizon_index"].to_numpy() - 1) * (end - start)) // 86_400_000


def _shed(t: pa.Table, keep: str, soft_keep_fraction: float) -> pa.Table:
    if keep == "anomalies":
        return t.filter(pc.greater(t["anomaly_grade"], 0.0))
    if keep == "soft":
        from ..functions.hashing import hash_strings

        key = [f"{m}|{w}" for m, w in zip(t["model_id"].to_pylist(), t["window_end_ms"].to_pylist())]
        u = hash_strings(key).astype(np.float64) / float(2**64)
        return t.filter(pa.array((t["anomaly_grade"].to_numpy() > 0.0) | (u < soft_keep_fraction)))
    return t


def _write_partitioned(t: pa.Table, out_dir: str, partition_col: str) -> int:
    """``t``'s rows as one file per value of ``partition_col``, in
    ``out_dir/<partition_col>=<value>/`` without that column (the hive
    layout readers expect). Each file is written under a hidden tmp name
    in ``out_dir`` (readers skip it) and renamed into place; the name is
    unique to this call, so a retried task adds its own file and never
    overwrites a finished one. Returns the rows written."""
    import uuid

    import pyarrow.parquet as pq

    name = f"part-{uuid.uuid4().hex}.parquet"
    data = t.drop_columns([partition_col])
    for value in pc.unique(t[partition_col]).to_pylist():
        part = f"{partition_col}={value}"
        os.makedirs(os.path.join(out_dir, part), exist_ok=True)
        tmp = os.path.join(out_dir, f".{part}.{name}.tmp")
        pq.write_table(data.filter(pc.equal(t[partition_col], value)), tmp)
        os.replace(tmp, os.path.join(out_dir, part, name))
    return t.num_rows


def write_part(t: pa.Table, out_dir: str, day=result_day, keep: str = "all",
               soft_keep_fraction: float = 0.5) -> int:
    """The one result writer: one exchange part's (or one block's) rows,
    shed by ``keep`` (see :func:`write_results`), partitioned by
    ``result_date`` = ``day(t)``. Runs inside the task that holds the
    rows. Returns the rows written."""
    t = _shed(t, keep, soft_keep_fraction)
    if not t.num_rows:
        return 0
    return _write_partitioned(t.append_column("result_date", pa.array(day(t), pa.int64())),
                              out_dir, "result_date")


@contextlib.contextmanager
def write_dir(out_dir: str, mode: str, partition_col: str = "result_date"):
    """The directory one run's writers write into, by ``mode``:
    ``append`` → ``out_dir`` itself; ``replace`` → a staging directory
    whose ``<partition_col>=`` dirs, once the run's writers all
    returned, each swap atomically into place (old partition removed
    first), so rerunning a partition replaces it instead of appending
    duplicate files (the rollover/replace semantics the reference gets
    from index management)."""
    if mode not in ("replace", "append"):
        raise ValueError(f"unknown write mode {mode!r}")
    if mode == "append":
        yield out_dir
        return
    os.makedirs(out_dir, exist_ok=True)
    staging = os.path.join(out_dir, f".staging-{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    try:
        yield staging
        for name in sorted(os.listdir(staging)):
            if name.startswith(f"{partition_col}="):
                dst = os.path.join(out_dir, name)
                shutil.rmtree(dst, ignore_errors=True)
                os.replace(os.path.join(staging, name), dst)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def rows_written(refs) -> int:
    """Σ of the writer tasks' returns (``refs``), once every one of them
    has ended: a failed write raises only after the others stopped, so a
    retried run never writes or saves checkpoints beside them."""
    import ray

    if refs:
        ray.wait(refs, num_returns=len(refs))
    return sum(ray.get(refs))


def _write_blocks(ds, out_dir: str, mode: str, write, partition_col: str = "result_date") -> int:
    """``write(block, dir)`` as one raw Ray task per block of ``ds`` with
    rows, into ``out_dir`` by ``mode``. Returns the rows written (the
    writers' own counts: a retried task's rows count once, in the
    attempt that returned)."""
    import ray

    task = ray.remote(write)
    with write_dir(out_dir, mode, partition_col) as d:
        return rows_written([task.remote(ref, d) for b in ds.iter_internal_ref_bundles()
                             for ref, meta in b.blocks if meta.num_rows])


def write_results(results_ds, out_dir: str, keep: str = "all", soft_keep_fraction: float = 0.5,
                  mode: str = "replace") -> int:
    """Write a detector results Dataset partitioned by date:
    :func:`write_part` over each block, as raw Ray tasks.

    ``keep`` mirrors ``ADResultBulkTransportAction.java:106-140``'s
    pressure ladder, made explicit and deterministic:

    - ``all`` — no shedding;
    - ``soft`` — soft index pressure: anomalies always kept, grade-0
      rows kept at ``soft_keep_fraction`` (selection by a deterministic
      hash of (model_id, window_end) instead of the reference's RNG, so
      reruns shed the same rows);
    - ``anomalies`` — hard pressure: grade > 0 only.

    ``mode``: ``replace`` (default — REPROCESSING semantics: this run's
    days atomically replace any previous content of those partitions) or
    ``append`` (INCREMENTAL-TICK semantics: a checkpointed job tick adds
    only its new windows, so earlier same-day rows must survive).

    Returns the number of rows THIS run wrote (post-shedding)."""
    if keep not in ("all", "soft", "anomalies"):
        raise ValueError(f"unknown keep policy {keep!r}")
    return _write_blocks(results_ds, out_dir, mode, lambda b, d: write_part(
        b, d, keep=keep, soft_keep_fraction=soft_keep_fraction))


def _write_replacing_partitions(ds, out_dir: str, partition_col: str) -> int:
    """``ds``'s rows (which carry ``partition_col``) replacing those
    partitions of ``out_dir`` (see :func:`write_dir`).
    Returns the rows written."""
    return _write_blocks(ds, out_dir, "replace",
                         lambda b, d: _write_partitioned(b, d, partition_col), partition_col)


def write_forecast_results(forecast_ds, out_dir: str, mode: str = "append"):
    """Forecast-result sink (``forecast/model/ForecastResult.java``
    persisted per-horizon rows): date-partitioned Parquet keyed on the
    forecast's ORIGIN day (:func:`forecast_day`). Default ``append``
    — successive job ticks within one day each add their own forecast
    rows; ``replace`` for reprocessing a day from scratch."""
    _write_blocks(forecast_ds, out_dir, mode, lambda b, d: write_part(b, d, day=forecast_day))
    return out_dir


def gc_results(out_dir: str, retention_days: int, now_day: int) -> list[int]:
    """Retention GC over a date-partitioned result sink: remove every
    ``result_date=`` partition older than ``now_day - retention_days``
    — the reference's old-history-index cleanup
    (``IndexManagement.java`` deleteOldHistoryIndices; default AD result
    retention 30 days). ``now_day`` is passed in (epoch days), never
    read from the wall clock — determinism rule. Whole-directory
    removals, so a crashed GC leaves only fully-intact partitions.
    Returns the removed partition days (sorted)."""
    import shutil

    cutoff = int(now_day) - int(retention_days)
    removed: list[int] = []
    if not os.path.isdir(out_dir):
        return removed
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("result_date="):
            continue
        try:
            day = int(name.split("=", 1)[1])
        except ValueError:
            continue
        if day < cutoff:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
            removed.append(day)
    return removed


class ResultIndexManager:
    """Generation-rolled CUSTOM result sink — the Parquet analogue of the
    reference's result-index rollover + delete loop
    (``timeseries/indices/IndexManagement.java:1306-1395``: a rollover
    request carrying ``MaxIndexAgeCondition`` (custom result index
    min_age, days), ``MaxIndexSizeCondition`` (min_size, MB) and — for
    the default index — ``MaxIndexDocsCondition``; the alias rolls when
    ANY condition is met, and rolled-off generations older than the
    custom TTL are deleted).

    Layout: ``root/gen-000001/result_date=D/…`` — the ACTIVE generation
    is the highest-numbered directory; callers write through
    ``write_results(res, mgr.active(), …)`` and call
    ``maybe_rollover(now_day)`` on their job tick (the reference
    schedules the same check every ``historyRolloverPeriod``). Whole-
    generation deletion keeps retention crash-safe the same way
    ``gc_results`` does for day partitions. ``now_day`` always flows in
    from the caller — determinism rule, no wall clock."""

    def __init__(self, root: str, min_age_days: int | None = 7,
                 min_size_bytes: int | None = None, min_docs: int | None = None):
        self.root = root
        self.min_age_days = min_age_days
        self.min_size_bytes = min_size_bytes
        self.min_docs = min_docs
        os.makedirs(root, exist_ok=True)

    # ---- generations ----

    def generations(self) -> list[str]:
        return sorted(
            n for n in os.listdir(self.root)
            if n.startswith("gen-") and os.path.isdir(os.path.join(self.root, n))
        )

    def active(self, now_day: int = 0) -> str:
        gens = self.generations()
        if not gens:
            return self._create_generation(1, now_day)
        return os.path.join(self.root, gens[-1])

    def _create_generation(self, n: int, now_day: int) -> str:
        import json

        path = os.path.join(self.root, f"gen-{n:06d}")
        os.makedirs(path, exist_ok=True)
        meta = {"created_day": int(now_day), "generation": n}
        tmp = os.path.join(path, ".meta.json.tmp")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, os.path.join(path, ".meta.json"))
        return path

    def _meta(self, gen_dir: str) -> dict:
        import json

        try:
            with open(os.path.join(gen_dir, ".meta.json")) as f:
                return json.load(f)
        except FileNotFoundError:
            return {"created_day": 0, "generation": 0}

    def stats(self, gen_dir: str | None = None) -> dict:
        """size/doc-count of a generation from parquet footers only."""
        import glob as _glob

        import pyarrow.parquet as _pq

        gen_dir = gen_dir or self.active()
        files = _glob.glob(os.path.join(gen_dir, "**", "*.parquet"), recursive=True)
        return {
            "bytes": sum(os.path.getsize(f) for f in files),
            "docs": sum(_pq.read_metadata(f).num_rows for f in files),
            "files": len(files),
        }

    # ---- the rollover check (ANY condition met → roll) ----

    def maybe_rollover(self, now_day: int) -> bool:
        gens = self.generations()
        if not gens:
            self._create_generation(1, now_day)
            return False
        gen_dir = os.path.join(self.root, gens[-1])
        meta = self._meta(gen_dir)
        st = self.stats(gen_dir)
        if st["files"] == 0:
            return False  # nothing written yet — an empty index never rolls
        roll = False
        if self.min_age_days is not None:
            roll |= (int(now_day) - meta["created_day"]) >= self.min_age_days
        if self.min_size_bytes is not None:
            roll |= st["bytes"] >= self.min_size_bytes
        if self.min_docs is not None:
            roll |= st["docs"] >= self.min_docs
        if roll:
            self._create_generation(meta["generation"] + 1, now_day)
        return roll

    # ---- TTL deletion of rolled-off generations ----

    def gc(self, now_day: int, ttl_days: int) -> list[str]:
        """Delete non-active generations created more than ``ttl_days``
        ago (customResultIndexTTL). Returns removed generation names."""
        import shutil

        gens = self.generations()
        removed = []
        for name in gens[:-1]:  # the active generation never deletes
            gen_dir = os.path.join(self.root, name)
            if self._meta(gen_dir)["created_day"] < int(now_day) - int(ttl_days):
                shutil.rmtree(gen_dir, ignore_errors=True)
                removed.append(name)
        return removed
