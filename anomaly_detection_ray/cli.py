"""Index CLI — the ``ray job submit`` entry point for the search side.

The north rule runs the engine "via ray job submit on a fixed-size
multi-node Ray cluster"; on a cluster the same commands run unchanged
(``ray job submit -- python -m anomaly_detection_ray.cli build …``
attaches to the cluster via RAY_ADDRESS instead of starting a local
session). Subcommands map 1:1 to the library surface:

    build    --input DIR --index DIR [--mode code] [--slices N] …
    extend   --index DIR --files F [F …]
    delete   --index DIR (--ids 1,2,3 | --query '<DSL JSON>')
    compact  --index DIR [--max-slices K] [--gc]
    query    --index DIR (--bm25 "text" | --dsl '<DSL JSON>' |
                          --search '<_search body JSON>') [--k 10]
    stats    --index DIR

Each invocation prints ONE JSON line (machine-readable, like bench.py).
This CLI owns its Ray session (guarded init per CLAUDE.md); the
library never calls ``ray.init``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _init_ray() -> bool:
    """Guarded init; returns True only when THIS call started the
    session (an embedding caller — tests, a larger job — keeps its own)."""
    import ray

    started = False
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
        started = True
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return started


def _input_files(path: str) -> list[str]:
    if os.path.isdir(path):
        return sorted(
            f for suf in ("*.parquet", "*.pq")
            for f in glob.glob(os.path.join(path, suf))
        )
    return [path]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="anomaly_detection_ray.cli",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build an index from parquet input")
    b.add_argument("--input", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--mode", default="code", choices=["code", "simple"])
    b.add_argument("--slices", type=int, default=1)
    b.add_argument("--num-partitions", type=int, default=16)
    b.add_argument("--text-col", default="content")
    b.add_argument("--id-col", default="doc_id")
    b.add_argument("--positions", action="store_true",
                   help="store the positional sidecar (phrase queries)")

    e = sub.add_parser("extend", help="segment-add new files to an index")
    e.add_argument("--index", required=True)
    e.add_argument("--files", nargs="+", required=True)

    d = sub.add_parser("delete", help="tombstone docs by id list or DSL query")
    d.add_argument("--index", required=True)
    d.add_argument("--ids", default=None, help="comma-separated doc ids")
    d.add_argument("--query", default=None, help="filter-DSL JSON")

    c = sub.add_parser("compact", help="merge slices (full, or tiered via --max-slices)")
    c.add_argument("--index", required=True)
    c.add_argument("--max-slices", type=int, default=None)
    c.add_argument("--gc", action="store_true")

    q = sub.add_parser("query", help="BM25 top-k or filter-DSL search")
    q.add_argument("--index", required=True)
    q.add_argument("--bm25", default=None)
    q.add_argument("--dsl", default=None, help="filter-DSL JSON")
    q.add_argument("--search", default=None,
                   help="_search request-body JSON (query/size/from/aggs/...)")
    q.add_argument("--source-files", nargs="*", default=None,
                   help="source parquet files (required for --search highlight)")
    q.add_argument("--k", type=int, default=10)

    s = sub.add_parser("stats", help="index stats (_stats analogue)")
    s.add_argument("--index", required=True)

    args = p.parse_args(argv)
    out: dict
    ray_cmds = ("build", "extend", "compact")
    started = _init_ray() if args.cmd in ray_cmds else False
    try:
        if args.cmd == "build":
            from .index.build import build_index

            m = build_index(
                _input_files(args.input), args.index, slices=args.slices,
                num_partitions=args.num_partitions, mode=args.mode,
                text_col=args.text_col, id_col=args.id_col,
                store_positions=args.positions,
            )
            out = {"cmd": "build", "n_docs": m["n_docs"], "n_terms": m["n_terms"],
                   "slices": len(m["slices"]), "index": args.index}
        elif args.cmd == "extend":
            from .index.build import extend_index

            m = extend_index(args.index, list(args.files))
            out = {"cmd": "extend", "n_docs": m["n_docs"], "slices": len(m["slices"])}
        elif args.cmd == "delete":
            if (args.ids is None) == (args.query is None):
                p.error("delete needs exactly one of --ids / --query")
            if args.ids is not None:
                from .index.lifecycle import delete_docs

                ids = [int(x) for x in args.ids.split(",") if x.strip()]
                m = delete_docs(args.index, ids)
                n = len(ids)
            else:
                from .index.lifecycle import delete_by_query

                m, n = delete_by_query(args.index, json.loads(args.query))
            out = {"cmd": "delete", "requested": n,
                   "n_deleted_total": m.get("deletes", {}).get("n_deleted", 0)}
        elif args.cmd == "compact":
            if args.max_slices is not None:
                from .index.lifecycle import maybe_merge

                m = maybe_merge(args.index, max_slices=args.max_slices, gc=args.gc)
                out = {"cmd": "compact", "merged": m is not None,
                       "slices": len((m or {"slices": []})["slices"]) or None}
            else:
                from .index.lifecycle import compact_index

                m = compact_index(args.index, gc=args.gc)
                out = {"cmd": "compact", "merged": True, "slices": len(m["slices"]),
                       "n_docs": m["n_docs"]}
        elif args.cmd == "query":
            from .index.query import QueryEngine

            n_modes = sum(x is not None for x in (args.bm25, args.dsl, args.search))
            if n_modes != 1:
                p.error("query needs exactly one of --bm25 / --dsl / --search")
            eng = QueryEngine(args.index)
            if args.search is not None:
                from .index.query import search

                out = {"cmd": "query",
                       **search(eng, json.loads(args.search),
                                source_files=args.source_files)}
            elif args.bm25 is not None:
                hits = eng.bm25_topk(args.bm25, k=args.k)
                out = {"cmd": "query", "hits": [
                    {"doc_id": d, "score": round(s, 6)} for d, s in hits
                ]}
            else:
                docs = eng.execute_filter(json.loads(args.dsl))
                out = {"cmd": "query", "n_hits": int(docs.size),
                       "doc_ids": docs[: args.k].tolist()}
        else:  # stats
            from .index.query import QueryEngine

            out = {"cmd": "stats", **QueryEngine(args.index).index_stats()}
    finally:
        if started:
            import ray

            ray.shutdown()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
