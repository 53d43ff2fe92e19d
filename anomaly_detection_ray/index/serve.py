"""Distributed query serving — replica actors over the shared index.

The reference serves every search from its data nodes: the coordinating
node fans the query out to the shards' nodes and gathers
(``TransportSearchAction`` path; shard routing via the cluster state).
Our index lives on shared storage and any node can read all of it, so
the Ray-native analogue is an ACTOR POOL of engine replicas:

- each replica opens the index once in ``__init__`` (term dictionary,
  postings/docs caches — the expensive, reusable state lives per actor,
  never per query);
- a query batch round-robins across replicas in chunks and gathers —
  throughput scales with replicas until the index's page-cache/IO bound;
- ``refresh()`` re-opens the manifest on every replica — the visibility
  flip after a segment add / delete / compaction tick (the reference's
  index refresh), cheap because manifests are tiny and caches rebuild
  lazily.

This is deliberately NOT a Ray Data pipeline: serving is a
latency-bound request/response surface (the one place SURVEY.md §4
keeps raw actors), while index BUILDS stay Dataset pipelines.
"""

from __future__ import annotations

import ray


@ray.remote
class _EngineReplica:
    def __init__(self, index_dir: str, **engine_kwargs):
        from .query import QueryEngine

        self._index_dir = index_dir
        self._kwargs = engine_kwargs
        self.engine = QueryEngine(index_dir, **engine_kwargs)

    def bm25_many(self, queries: list[str], k: int) -> list:
        return [self.engine.bm25_topk(q, k=k) for q in queries]

    def dsl_many(self, queries: list[dict]) -> list:
        return [self.engine.execute_filter(q).tolist() for q in queries]

    def mlt_many(self, texts: list[str], k: int) -> list:
        return [self.engine.more_like_this(t, k=k) for t in texts]

    def search_many(self, bodies: list[dict], source_files, text_col: str) -> list:
        from .query import search

        return [search(self.engine, b, source_files=source_files, text_col=text_col)
                for b in bodies]

    def refresh(self) -> int:
        from .query import QueryEngine

        self.engine = QueryEngine(self._index_dir, **self._kwargs)
        return self.engine.n_docs


class QueryService:
    """Round-robin scatter/gather over ``n_replicas`` engine actors.

    Sizing: one replica per serving core; each holds its own dictionary
    + byte-capped caches, so memory = replicas × (dict + cache budgets).
    On a multi-node cluster Ray spreads the actors, giving the
    reference's one-engine-per-data-node shape."""

    def __init__(self, index_dir: str, n_replicas: int = 2, num_cpus: float = 1,
                 **engine_kwargs):
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.replicas = [
            _EngineReplica.options(num_cpus=num_cpus).remote(index_dir, **engine_kwargs)
            for _ in range(n_replicas)
        ]

    def _scatter(self, items: list, method: str, *args) -> list:
        """Dynamic scatter/gather: small chunks dispatched as replicas
        free up (ray.wait loop), so one heavy-tail query can't make a
        static round-robin partition the straggler — the same reason the
        reference's coordinating node streams per-shard responses."""
        if not items:
            return []
        n = len(self.replicas)
        # ~4 waves per replica: small enough to rebalance around heavy
        # queries, big enough that per-call overhead stays negligible
        chunk = max(1, len(items) // (n * 4))
        pending = [(i, items[i:i + chunk]) for i in range(0, len(items), chunk)]
        pending.reverse()  # pop() serves them in order
        out = [None] * len(items)
        in_flight: dict = {}
        idle = list(self.replicas)
        while pending or in_flight:
            while pending and idle:
                start, part = pending.pop()
                r = idle.pop()
                ref = getattr(r, method).remote(part, *args)
                in_flight[ref] = (start, len(part), r)
            done, _ = ray.wait(list(in_flight), num_returns=1)
            ref = done[0]
            start, ln, r = in_flight.pop(ref)
            out[start:start + ln] = ray.get(ref)
            idle.append(r)
        return out

    def bm25_topk(self, queries: list[str], k: int = 10) -> list:
        """One ranked hit list per query, query order preserved."""
        return self._scatter(list(queries), "bm25_many", k)

    def execute_filter(self, queries: list[dict]) -> list:
        """One sorted doc-id list per DSL filter query."""
        return self._scatter(list(queries), "dsl_many")

    def more_like_this(self, texts: list[str], k: int = 10) -> list:
        return self._scatter(list(texts), "mlt_many", k)

    def search(self, bodies: list[dict], source_files: list[str] | None = None,
               text_col: str = "content") -> list[dict]:
        """One _search response envelope per request body."""
        return self._scatter(list(bodies), "search_many", source_files, text_col)

    def refresh(self) -> list[int]:
        """Re-open the index on every replica (post lifecycle tick);
        returns each replica's visible doc count."""
        return ray.get([r.refresh.remote() for r in self.replicas])

    def shutdown(self) -> None:
        for r in self.replicas:
            ray.kill(r)
        self.replicas = []
