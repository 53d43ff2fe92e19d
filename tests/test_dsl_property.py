"""Property test: random filter-DSL ASTs vs a brute-force evaluator.

The compiler's set algebra (intersection / union-with-msm / difference
over postings and metadata predicates) must agree with a direct
per-document evaluation for ANY well-formed query tree — the shape of
bug a fixed fixture set misses (deep nesting, empty branches,
msm edge values).
"""

import re
from fnmatch import fnmatchcase

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anomaly_detection_ray.functions.analyzer import Analyzer
from anomaly_detection_ray.index.build import build_index
from anomaly_detection_ray.index.query import QueryEngine

TERMS = ["merge", "sort", "parse", "import", "window", "zzabsent"]
LANGS = ["python", "java", "go", "rust", "zzno"]
PREFIXES = ["pa", "im", "zz", "m"]
WILDCARDS = ["pa*", "*e", "s?rt", "zz*"]


def leaf_strategy():
    return st.one_of(
        st.sampled_from(TERMS).map(lambda t: {"term": {"content": t}}),
        st.sampled_from(LANGS).map(lambda v: {"term": {"lang": v}}),
        st.lists(st.sampled_from(TERMS), min_size=1, max_size=3).map(
            lambda ts: {"terms": {"content": ts}}
        ),
        st.tuples(st.integers(0, 200), st.integers(0, 200)).map(
            lambda ab: {"range": {"doc_id": {"gte": min(ab), "lt": max(ab)}}}
        ),
        st.sampled_from(PREFIXES).map(lambda p: {"prefix": {"content": p}}),
        st.sampled_from(WILDCARDS).map(lambda w: {"wildcard": {"content": w}}),
        st.just({"exists": {"field": "lang"}}),
        st.just({"exists": {"field": "zz_unmapped"}}),  # unmapped → none
        st.just({"match_all": {}}),
        st.lists(st.integers(0, 300), min_size=1, max_size=4).map(
            lambda ids: {"ids": {"values": ids}}
        ),
        st.builds(
            lambda t: {"constant_score": {"filter": {"term": {"content": t}}}},
            st.sampled_from(TERMS),
        ),
        st.builds(
            lambda ts, p, op: {
                "match_bool_prefix": {"content": {"query": " ".join(ts + [p]),
                                                  "operator": op}}
            },
            st.lists(st.sampled_from(TERMS), max_size=2),
            st.sampled_from(PREFIXES),
            st.sampled_from(["or", "and"]),
        ),
        st.builds(
            lambda ts, op, msm: {
                "match": {"content": {"query": " ".join(ts), "operator": op,
                                      "minimum_should_match": msm}}
            },
            st.lists(st.sampled_from(TERMS), min_size=1, max_size=3, unique=True),
            st.sampled_from(["or", "and"]),
            st.one_of(st.integers(1, 3),
                      st.sampled_from(["2", "50%", "67%", "100%", "-1", "-50%"])),
        ),
    )


def bool_strategy(children):
    return st.builds(
        lambda must, should, must_not, msm: {
            "bool": {
                "must": must,
                "should": should,
                "must_not": must_not,
                **({"minimum_should_match": msm} if should and msm is not None else {}),
            }
        },
        st.lists(children, max_size=2),
        st.lists(children, max_size=3),
        st.lists(children, max_size=2),
        st.one_of(st.none(), st.integers(0, 3),
                  st.sampled_from(["50%", "100%", "-1", "-25%"])),
    )


def dis_max_strategy(children):
    return st.lists(children, min_size=1, max_size=3).map(
        lambda qs: {"dis_max": {"queries": qs, "tie_breaker": 0.3}}
    )


query_strategy = st.recursive(
    leaf_strategy(),
    lambda c: st.one_of(bool_strategy(c), dis_max_strategy(c)),
    max_leaves=12,
)


def brute_eval(query, docs) -> set:
    """Direct per-document evaluation of the same AST."""
    if not query or "match_all" in query:
        return {d["doc_id"] for d in docs}
    kind, body = next(iter(query.items()))
    if kind == "term":
        ((field, value),) = body.items()
        if field == "content":
            return {d["doc_id"] for d in docs if value in d["tokens"]}
        return {d["doc_id"] for d in docs if d.get(field) == value}
    if kind == "terms":
        ((field, values),) = body.items()
        return {d["doc_id"] for d in docs if set(values) & d["tokens"]}
    if kind == "range":
        ((field, conds),) = body.items()
        lo, hi = conds["gte"], conds["lt"]
        return {d["doc_id"] for d in docs if lo <= d[field] < hi}
    if kind == "prefix":
        ((_, p),) = body.items()
        return {d["doc_id"] for d in docs if any(t.startswith(p) for t in d["tokens"])}
    if kind == "wildcard":
        ((_, w),) = body.items()
        return {d["doc_id"] for d in docs if any(fnmatchcase(t, w) for t in d["tokens"])}
    if kind == "exists":
        return {d["doc_id"] for d in docs if d.get(body["field"]) is not None}
    if kind == "ids":
        return {d["doc_id"] for d in docs if d["doc_id"] in set(body["values"])}
    if kind == "constant_score":
        return brute_eval(body["filter"], docs)
    if kind == "dis_max":
        out = set()
        for c in body.get("queries", ()):
            out |= brute_eval(c, docs)
        return out
    if kind == "match_bool_prefix":
        ((_, spec),) = body.items()
        spec = spec if isinstance(spec, dict) else {"query": spec}
        words = spec["query"].split()
        rest, last = words[:-1], words[-1]

        def hit(d):
            parts = [w in d["tokens"] for w in rest]
            parts.append(any(t.startswith(last) for t in d["tokens"]))
            return all(parts) if spec.get("operator", "or") == "and" else any(parts)

        return {d["doc_id"] for d in docs if hit(d)}
    if kind == "match":
        ((_, spec),) = body.items()
        terms = set(spec["query"].split())
        if spec.get("operator", "or") == "and":
            return {d["doc_id"] for d in docs if terms <= d["tokens"]}
        from anomaly_detection_ray.index.queryast import parse_msm

        msm = parse_msm(spec.get("minimum_should_match", 1), len(terms))
        # a computed msm of 0 (e.g. "50%" of 1 term) still needs ≥1
        # matching term: Lucene's pure-should disjunction never matches
        # a doc that matches no clause
        return {d["doc_id"] for d in docs if len(terms & d["tokens"]) >= max(1, msm)}
    if kind == "bool":
        result = None
        for clause in list(body.get("must", ())) + list(body.get("filter", ())):
            s = brute_eval(clause, docs)
            result = s if result is None else (result & s)
        shoulds = body.get("should", ())
        if shoulds:
            from anomaly_detection_ray.index.queryast import parse_msm

            msm = body.get("minimum_should_match")
            if msm is None:
                msm = 1 if result is None else 0
            else:
                msm = parse_msm(msm, len(shoulds))
            if msm > 0:
                per = [brute_eval(c, docs) for c in shoulds]
                matched = {
                    d["doc_id"]
                    for d in docs
                    if sum(d["doc_id"] in s for s in per) >= msm
                }
                result = matched if result is None else (result & matched)
        if result is None:
            result = {d["doc_id"] for d in docs}
        for clause in body.get("must_not", ()):
            result = result - brute_eval(clause, docs)
        return result
    raise AssertionError(kind)


@pytest.fixture(scope="module")
def dsl_env(ray_session, tiny_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("dslprop"))
    build_index(tiny_corpus["paths"], out, slices=1, num_partitions=4, mode="code")
    table = tiny_corpus["table"].to_pandas()
    an = Analyzer("code")
    docs = [
        {
            "doc_id": int(r.doc_id),
            "lang": r.lang,
            "tokens": set(an.tokens(r.content)),
        }
        for r in table.itertuples()
    ]
    return QueryEngine(out), docs


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(query=query_strategy)
def test_dsl_matches_brute_force(dsl_env, query):
    eng, docs = dsl_env
    got = set(eng.execute_filter(query).tolist())
    assert got == brute_eval(query, docs), query


# ---- query_string / simple_query_string: random rendered trees ----
# Each generated node carries BOTH its string rendering (fully
# parenthesized, so documented precedence is exercised separately in
# tests/test_queryast.py) and the equivalent structured-DSL dict; the
# parser must make {"query_string": s} match brute_eval(dsl).

def qs_leaf_strategy():
    return st.one_of(
        st.sampled_from(TERMS).map(lambda t: (t, {"term": {"content": t}})),
        st.sampled_from(LANGS).map(lambda v: (f"lang:{v}", {"term": {"lang": v}})),
        st.sampled_from(PREFIXES).map(lambda p: (f"{p}*", {"prefix": {"content": p}})),
        st.sampled_from(["s?rt", "pa*e"]).map(lambda w: (w, {"wildcard": {"content": w}})),
    )


def qs_combine(op, a, b):
    (sa, da), (sb, db) = a, b
    if op == "AND":
        return (f"({sa} AND {sb})", {"bool": {"must": [da, db]}})
    if op == "OR":
        return (f"({sa} OR {sb})", {"bool": {"should": [da, db]}})
    return (f"({sa} NOT {sb})", {"bool": {"must": [da], "must_not": [db]}})


qs_strategy = st.recursive(
    qs_leaf_strategy(),
    lambda c: st.builds(qs_combine, st.sampled_from(["AND", "OR", "NOT"]), c, c),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=qs_strategy)
def test_query_string_matches_brute_force(dsl_env, pair):
    eng, docs = dsl_env
    s, dsl = pair
    got = set(eng.execute_filter({"query_string": {"query": s}}).tolist())
    assert got == brute_eval(dsl, docs), s


def sqs_combine(op, a, b):
    (sa, da), (sb, db) = a, b
    if op == "+":
        return (f"({sa} + {sb})", {"bool": {"must": [da, db]}})
    if op == "|":
        return (f"({sa} | {sb})", {"bool": {"should": [da, db]}})
    return (f"({sa} + -{sb})", {"bool": {"must": [da], "must_not": [db]}})


sqs_strategy = st.recursive(
    qs_leaf_strategy().filter(lambda p: ":" not in p[0]),  # no field scoping in sqs
    lambda c: st.builds(sqs_combine, st.sampled_from(["+", "|", "-"]), c, c),
    max_leaves=8,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=sqs_strategy)
def test_simple_query_string_matches_brute_force(dsl_env, pair):
    eng, docs = dsl_env
    s, dsl = pair
    got = set(eng.execute_filter({"simple_query_string": {"query": s}}).tolist())
    assert got == brute_eval(dsl, docs), s


# ---- _search envelope internal-consistency fuzz ----
# Random supported bodies must never crash, and every response must
# satisfy the envelope invariants regardless of the query shape.

def envelope_body_strategy():
    q = st.one_of(
        st.sampled_from(TERMS).map(lambda t: {"match": {"content": t}}),
        st.lists(st.sampled_from(TERMS), min_size=1, max_size=2, unique=True).map(
            lambda ts: {"bool": {"should": [{"match": {"content": t}} for t in ts]}}),
        st.sampled_from(LANGS).map(lambda v: {"term": {"lang": v}}),
        st.sampled_from(TERMS).map(
            lambda t: {"query_string": {"query": f"{t} OR lang:python"}}),
        st.just({"match_all": {}}),
    )
    aggs = st.one_of(
        st.none(),
        st.just({"l": {"terms": {"field": "lang", "size": 3}}}),
        st.just({"s": {"stats": {"field": "doc_id"}},
                 "h": {"histogram": {"field": "doc_id", "interval": 64}}}),
        st.just({"c": {"composite": {"sources": [{"l": {"terms": {"field": "lang"}}}],
                                     "size": 3},
                       "aggs": {"m": {"avg": {"field": "doc_id"}}}}}),
        st.just({"n": {"value_count": {"field": "doc_id"}}}),
    )
    return st.builds(
        lambda query, frm, size, a: {
            "query": query, "from": frm, "size": size,
            **({"aggs": a} if a else {}),
        },
        q, st.integers(0, 5), st.integers(0, 7), aggs,
    )


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=envelope_body_strategy())
def test_search_envelope_invariants(dsl_env, body):
    from anomaly_detection_ray.index.query import search

    eng, docs = dsl_env
    r = search(eng, body)
    hits = r["hits"]["hits"]
    total = r["hits"]["total"]["value"]
    # page never exceeds size; ids are valid and unique
    assert len(hits) <= body["size"]
    ids = [h["_id"] for h in hits]
    assert len(set(ids)) == len(ids)
    alld = {d["doc_id"] for d in docs}
    assert set(ids) <= alld
    assert 0 <= total <= len(alld)
    # scores are non-increasing when present
    scores = [h["_score"] for h in hits]
    if scores and scores[0] is not None:
        assert all(a >= b for a, b in zip(scores, scores[1:]))
    # from+size paging never exceeds the total
    assert body["from"] + len(hits) <= max(total, body["from"])
    # aggregations exist iff requested
    assert ("aggregations" in r) == ("aggs" in body)
    # aggregations run over exactly the hit set hits.total counts
    if "n" in body.get("aggs", {}):
        assert r["aggregations"]["n"]["value"] == total
