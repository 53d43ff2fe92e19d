"""QueryService: replica scatter/gather ≡ single engine; refresh picks
up lifecycle changes."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from anomaly_detection_ray.index.build import build_index, extend_index
from anomaly_detection_ray.index.query import QueryEngine
from anomaly_detection_ray.index.serve import QueryService


@pytest.fixture(scope="module")
def served(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("serveidx"))
    build_index(tiny_corpus["paths"], out, slices=1, num_partitions=4,
                batch_size=64, mode="code")
    # fractional CPUs: replica actors must leave the 4-CPU test session
    # room for build/compact tasks (full-CPU replicas deadlock it)
    svc = QueryService(out, n_replicas=3, num_cpus=0.25)
    yield out, svc, QueryEngine(out)
    svc.shutdown()


def test_scatter_gather_matches_single_engine(served, tiny_corpus):
    _, svc, eng = served
    queries = tiny_corpus["queries"]["query"].to_pylist()[:10]
    got = svc.bm25_topk(queries, k=5)
    assert len(got) == len(queries)
    for q, hits in zip(queries, got):
        assert hits == eng.bm25_topk(q, k=5)
    dsl = [{"term": {"lang": "python"}}, {"match_all": {}},
           {"prefix": {"content": "me"}}]
    got_dsl = svc.execute_filter(dsl)
    for q, docs in zip(dsl, got_dsl):
        assert docs == eng.execute_filter(q).tolist()
    # empty batch and single-item batch round-trip
    assert svc.bm25_topk([], k=5) == []
    assert svc.bm25_topk([queries[0]], k=3) == [eng.bm25_topk(queries[0], k=3)]
    # the _search envelope serves through the replicas too
    from anomaly_detection_ray.index.query import search

    bodies = [{"query": {"match": {"content": q}}, "size": 3,
               "aggs": {"langs": {"terms": {"field": "lang", "size": 2}}}}
              for q in queries[:4]]
    # the r5 envelope surface serves identically: query_string lowering,
    # metric sub-aggs, terms ordering, composite paging, calendar buckets
    bodies += [
        {"query": {"query_string": {"query": "merge AND (sort OR lang:python) NOT zz*"}},
         "size": 5},
        {"query": {"simple_query_string": {"query": "merge + sort | parse"}}, "size": 5},
        {"query": {"match": {"content": "merge"}}, "size": 0,
         "aggs": {"by_lang": {"terms": {"field": "lang", "size": 5,
                                        "order": {"m": "desc"}},
                              "aggs": {"m": {"avg": {"field": "doc_id"}}}},
                  "c": {"composite": {"sources": [{"l": {"terms": {"field": "lang"}}}],
                                      "size": 2},
                        "aggs": {"s": {"sum": {"field": "doc_id"}}}},
                  "w": {"date_histogram": {"field": "doc_id",
                                           "calendar_interval": "1w"}}}},
        {"query": {"match": {"content": "merge"}}, "size": 4,
         "collapse": {"field": "lang"}},
        {"query": {"term": {"lang": "java"}}, "size": 5,
         "sort": [{"doc_id": "desc"}]},
        {"query": {"match_all": {}}, "size": 0,
         "suggest": {"fix": {"text": "mergz",
                             "term": {"field": "content", "size": 3}}}},
    ]
    got_env = svc.search(bodies)
    for b, env in zip(bodies, got_env):
        assert env == search(eng, b)


def test_refresh_sees_segment_add(served, tmp_path_factory):
    out, svc, _ = served
    add = pa.table({"doc_id": pa.array([77001], pa.int64()),
                    "content": pa.array(["zzserved fresh replica document"])})
    src = str(tmp_path_factory.mktemp("serveadd") / "add.parquet")
    pq.write_table(add, src)
    before = svc.execute_filter([{"term": {"content": "zzserved"}}])[0]
    assert before == []  # replicas still see the old manifest
    extend_index(out, [src])
    counts = svc.refresh()
    assert all(c == 201 for c in counts)
    after = svc.execute_filter([{"term": {"content": "zzserved"}}])[0]
    assert after == [77001]


def test_refresh_sees_delete_and_compaction(ray_session, tiny_corpus, tmp_path_factory):
    """The replica visibility flip covers the whole lifecycle: a delete
    is invisible until refresh(), and a subsequent forceMerge(1) serves
    identically through the replicas (rank/score vs a fresh engine)."""
    from anomaly_detection_ray.index.lifecycle import compact_index, delete_docs

    out = str(tmp_path_factory.mktemp("servelc"))
    build_index(tiny_corpus["paths"], out, slices=1, num_partitions=4,
                batch_size=64, mode="code")
    svc = QueryService(out, n_replicas=2, num_cpus=0.25)
    try:
        q = "merge sort"
        top = svc.bm25_topk([q], k=3)[0]
        victim = top[0][0]
        delete_docs(out, [victim])
        # replicas still serve the old manifest until refresh
        assert svc.bm25_topk([q], k=3)[0] == top
        svc.refresh()
        after = svc.bm25_topk([q], k=3)[0]
        assert victim not in [d for d, _ in after]
        compact_index(out, gc=True)
        svc.refresh()
        compacted = svc.bm25_topk([q], k=3)[0]
        assert compacted == QueryEngine(out).bm25_topk(q, k=3)
        assert victim not in [d for d, _ in compacted]
    finally:
        svc.shutdown()
