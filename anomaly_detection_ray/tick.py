"""Continuous-tick job runner — the job-scheduler loop of the reference
(``timeseries/JobProcessor.java:129-175``: fire once per detector
interval, run the configured analysis over whatever new data arrived,
write results, persist model state) as a thin CLI over the idempotent
``DetectorAPI.start_job`` / ``forecast_start_job`` tick:

    python -m anomaly_detection_ray.tick \\
        --config detector.json --events /data/events \\
        --results /out/results --checkpoints /out/ckpt \\
        [--forecast --horizon 24] [--interval 600] [--max-ticks 0]

Each tick re-reads the (growing) input path, continues the checkpointed
model streams, and APPENDS only the new windows' rows — overlapping
windows drop as out-of-order, so a tick that sees no new data writes
nothing and reruns are idempotent (the existing start_job tests prove
the incremental semantics; this module only adds the wall-clock loop).

Wall-clock scheduling lives ONLY here (CLI): pipeline code stays
deterministic per CLAUDE.md. This CLI owns its Ray session (guarded
init) — library code never calls ``ray.init``.
"""

from __future__ import annotations

import argparse
import json
import time

from .config import DetectorConfig


def config_from_json(d: dict) -> DetectorConfig:
    """DetectorConfig from a plain JSON dict (the create/update surface:
    configs are documents in the reference — ``ad/rest/`` CRUD — stored
    by :class:`..state.configstore.ConfigStore` or a plain file here)."""
    from .state.configstore import config_from_json as _from_json

    return _from_json(d)


def run_ticks(
    api,
    results_dir: str,
    checkpoint_dir: str,
    n_ticks: int = 0,
    interval_s: float | None = None,
    forecast: bool = False,
    horizon: int = 24,
    period: int = 0,
    on_tick=None,
    sleep=time.sleep,
    clock=time.monotonic,
    tail_source=None,
    should_run=None,
    result_manager=None,
    retention_days: int | None = None,
    now_day=None,
) -> int:
    """The scheduler loop. ``n_ticks=0`` runs until interrupted; each
    tick fires at most once per ``interval_s`` of wall time (the job
    interval defaults to the detector interval). ``on_tick(i)`` runs
    after each tick (tests use it to append input data). Returns the
    number of ticks executed.

    With ``tail_source`` (a :class:`..sources.tailing.TailingSource`)
    each tick reads ONLY the files that appeared/changed since the last
    committed tick — the checkpointed model streams make that correct
    (already-seen windows would drop as out-of-order anyway) — and a
    tick with no new files skips the pipeline entirely. A tick is one
    raw-Ray task graph: split tasks read the tick's files, and each
    scoring reducer writes its own part's rows; the tick returns once
    every reducer has ended. The manifest is committed only after the
    tick's results are written, so a crash between the two reprocesses
    the same files. Model checkpoints, however, are saved BEFORE the
    results are written (each reducer saves a model's checkpoint as it
    scores it, then writes its part): a tick whose write fails after
    scoring loses its new windows on the retry (they drop as
    out-of-order; see ``sources/tailing.py``). Caveat
    (matches the reference's realtime behavior, which also queries only
    the current window): an entity first appearing mid-stream cold-starts
    from the files of ITS tick, not the full history.

    With ``result_manager`` (a :class:`..stages.sink.ResultIndexManager`)
    each tick writes into the manager's ACTIVE generation and runs the
    rollover check + TTL gc after writing — the reference schedules the
    same rollover-and-delete pass every historyRolloverPeriod
    (``IndexManagement.java:1126-1134``). ``now_day`` supplies epoch days
    (defaults to wall clock — allowed HERE, the CLI owns time; tests
    inject a counter); ``retention_days`` alone prunes day partitions via
    ``gc_results`` when no manager is used."""
    interval = float(interval_s if interval_s is not None else api.config.interval_s)
    i = 0
    while n_ticks == 0 or i < n_ticks:
        if should_run is not None and not should_run():
            # job doc disabled (stop_job from another process) — the
            # JobProcessor halts until re-enabled; we exit the loop
            break
        t0 = clock()
        day = int(now_day() if callable(now_day)
                  else now_day if now_day is not None
                  else time.time() // 86_400)
        files = tail_source.poll() if tail_source is not None else None
        if tail_source is None or files:
            out_dir = result_manager.active(day) if result_manager is not None else results_dir
            prev_path = api.events_path
            if files:
                api.events_path = files
            try:
                if forecast:
                    api.forecast_start_job(out_dir, checkpoint_dir,
                                           horizon=horizon, period=period)
                else:
                    api.start_job(out_dir, checkpoint_dir)
            finally:
                api.events_path = prev_path
            if tail_source is not None:
                tail_source.commit(files)
            if result_manager is not None:
                result_manager.maybe_rollover(day)
                if retention_days is not None:
                    result_manager.gc(day, retention_days)
            elif retention_days is not None:
                from .stages.sink import gc_results

                gc_results(results_dir, retention_days, day)
        i += 1
        if on_tick is not None:
            on_tick(i)
        if n_ticks and i >= n_ticks:
            break
        elapsed = clock() - t0
        if elapsed < interval:
            sleep(interval - elapsed)
    return i


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Continuous detector/forecast job ticks")
    p.add_argument("--config", default=None, help="DetectorConfig JSON file")
    p.add_argument("--store", default=None,
                   help="ConfigStore root; with --config-id, loads the config "
                        "from the store, flips its job doc on, and stops "
                        "ticking when another process disables it")
    p.add_argument("--config-id", default=None)
    p.add_argument("--events", required=True, help="events parquet file/dir (may grow)")
    p.add_argument("--results", required=True, help="results sink dir")
    p.add_argument("--checkpoints", required=True, help="model checkpoint dir")
    p.add_argument("--ts-col", default="ts")
    p.add_argument("--interval", type=float, default=None,
                   help="wall seconds between ticks (default: config interval)")
    p.add_argument("--max-ticks", type=int, default=0, help="0 = run forever")
    p.add_argument("--forecast", action="store_true", help="run forecast job ticks")
    p.add_argument("--horizon", type=int, default=24)
    p.add_argument("--period", type=int, default=0)
    p.add_argument("--tail-manifest", default=None,
                   help="JSON manifest path; when set, each tick reads only "
                        "files new/changed since the last committed tick")
    p.add_argument("--roll-min-age-days", type=int, default=None,
                   help="rollover: roll the active result generation at this age")
    p.add_argument("--roll-min-size-mb", type=int, default=None,
                   help="rollover: roll when the active generation exceeds this size")
    p.add_argument("--roll-min-docs", type=int, default=None,
                   help="rollover: roll when the active generation exceeds this row count")
    p.add_argument("--retention-days", type=int, default=None,
                   help="delete result partitions/generations older than this")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False)
    try:
        from .pipelines.api import DetectorAPI

        should_run = None
        if args.store and args.config_id:
            from .state.configstore import ConfigStore

            store = ConfigStore(args.store)
            config = store.get_config(args.config_id)
            store.start_job(args.config_id)
            should_run = lambda: store.job_enabled(args.config_id)  # noqa: E731
        elif args.config:
            with open(args.config) as f:
                config = config_from_json(json.load(f))
        else:
            p.error("either --config or --store/--config-id is required")
        api = DetectorAPI(config, args.events, ts_col=args.ts_col)
        tail = None
        if args.tail_manifest:
            from .sources.tailing import TailingSource

            tail = TailingSource(args.events, args.tail_manifest)
        mgr = None
        if (args.roll_min_age_days is not None or args.roll_min_size_mb is not None
                or args.roll_min_docs is not None):
            from .stages.sink import ResultIndexManager

            mgr = ResultIndexManager(
                args.results,
                min_age_days=args.roll_min_age_days,
                min_size_bytes=(args.roll_min_size_mb * (1 << 20)
                                if args.roll_min_size_mb is not None else None),
                min_docs=args.roll_min_docs,
            )
        n = run_ticks(
            api, args.results, args.checkpoints,
            n_ticks=args.max_ticks, interval_s=args.interval,
            forecast=args.forecast, horizon=args.horizon, period=args.period,
            tail_source=tail, should_run=should_run,
            result_manager=mgr, retention_days=args.retention_days,
        )
        print(json.dumps({"ticks": n, "results": args.results}))
        return 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
