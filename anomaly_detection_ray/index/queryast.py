"""Restricted query DSL — SURVEY.md §2.A4.

The reference accepts an arbitrary ``filter_query`` in OpenSearch query
DSL (``Config.java:99``) but only ever *generates* bool/term/range
queries itself (``ParseUtils.java:314-376``). This module implements
exactly that surface as a JSON-dict AST compiled against a built index:

    {"match_all": {}}
    {"term":  {"<field>": value}}             # docmap column or indexed term
    {"terms": {"<field>": [v1, v2, ...]}}     # any-of (is_in / postings union)
    {"range": {"<field>": {"gte"/"gt"/"lte"/"lt": v, ...}}}
    {"match": {"<text-field>": "free text"}}  # analyzed, operator=or (≡ long-form defaults)
    {"match": {"<f>": {"query": q, "operator": "or"|"and",
                       "minimum_should_match": n}}}   # OpenSearch long form
    {"match_phrase": {"<text-field>": "a b"}} # consecutive tokens (positional sidecar)
    {"match_phrase": {"<f>": {"query": "a b", "slop": n}}}  # in-order proximity
                                              # (window ≤ k-1+slop; Lucene's
                                              # reorder-at-cost-2 NOT matched)
    {"match_bool_prefix": {"<f>": "a b pre"}} # every term a term query, the last
                                              # a prefix, combined per operator
                                              # (default or) — unordered autocomplete
    {"prefix": {"<field>": "val"}}            # dictionary range scan / starts_with
    {"wildcard": {"<field>": "v?l*"}}         # dictionary scan, RE2-compiled pattern
    {"regexp":   {"<field>": "v[ae]l.*"}}     # anchored RE2 over dictionary / column
    {"fuzzy":    {"<field>": "valeu"}}        # Levenshtein expansion (AUTO edits);
                                              # long form {"value": v, "fuzziness": n,
                                              # "prefix_length": p, "transpositions": b,
                                              # "max_expansions": m}
    {"exists": {"field": "<field>"}}          # docmap column non-null; text field
                                              # → all docs; unmapped → none
    {"ids": {"values": [id, ...]}}            # doc_id set lookup (live docs only)
    {"constant_score": {"filter": {...}}}     # filter-context wrapper; in query
                                              # context scores boost (default 1.0)
    {"dis_max": {"queries": [...],            # any-match union in filter context;
                 "tie_breaker": t}}           # max + t·(sum of the rest) in query
                                              # context (Lucene DisjunctionMaxQuery)
    {"bool":  {"must": [...], "filter": [...], "should": [...], "must_not": [...],
               "minimum_should_match": n}}
    {"query_string": {"query": "a AND (b OR lang:en) NOT c*",
                      "default_operator": "or"}}   # Lucene syntax, strict parse
    {"simple_query_string": {"query": "a +b | -c"}}  # lenient, never errors
                                              # (both lower to this AST —
                                              # index/querystring.py)

Evaluation returns a sorted int64 array of doc_ids. Metadata predicates
(term/terms/range/exists/prefix/wildcard/regexp/fuzzy on docmap columns,
ids) evaluate as Arrow compute masks over the engine's docmap columns;
text predicates via posting lists. ``bool`` combines with set
intersection (must/filter), union (should — matched when no must/filter
present, OpenSearch filter-context semantics), and difference
(must_not). Scoring is irrelevant: the plugin uses all of these in
filter context (``ParseUtils.java:321,370-376``).
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def parse_msm(value, n: int) -> int:
    """OpenSearch/Lucene ``minimum_should_match`` values: an int, "N",
    "N%", "-N" or "-N%" (percentages round DOWN; a negative value means
    n minus the computed count — Lucene's
    ``Queries.calculateMinShouldMatch``). Clamped at 0 below but NOT
    above: a requirement greater than the clause count matches nothing,
    exactly like Lucene's BooleanQuery."""
    if isinstance(value, int):
        req = value if value >= 0 else n + value
    else:
        s = str(value).strip()
        if s.endswith("%"):
            pct = int(s[:-1])
            part = abs(pct) * n // 100
            req = part if pct >= 0 else n - part
        else:
            v = int(s)
            req = v if v >= 0 else n + v
    return max(0, req)


class QueryCompiler:
    def __init__(self, engine):
        self.engine = engine

    # ---- docmap access ----
    # A metadata predicate is one pyarrow compute call over ``x``. When
    # the docmap fits the engine's ``preload_bytes`` budget, ``x`` is the
    # engine's in-memory column and the call is a vectorized mask over
    # it. Over budget, ``x`` is a dataset field reference pushed into the
    # per-slice parquet scan (row-group pruning, doc_id-only projection),
    # so only matching doc ids come back. Both give the same answer,
    # type errors included: the compute kernels are the same.

    def _meta_docs(self, field: str, pred) -> np.ndarray:
        """Sorted live doc ids whose ``field`` satisfies ``pred``."""
        eng = self.engine
        if eng.docmap_in_memory:
            ids = eng.live_ids()
            if ids.size == 0:
                return ids
            mask = pc.fill_null(pred(eng.docmap_column(field)), False)
            return ids[mask.to_numpy(zero_copy_only=False)]
        t = eng.live_docmap(columns=["doc_id"], filter=pred(pc.field(field)))
        return np.sort(t["doc_id"].to_numpy().astype(np.int64))

    # ---- evaluation ----

    def execute(self, query: dict | None) -> np.ndarray:
        """query AST → sorted doc_id array (filter-context semantics)."""
        if not query or "match_all" in query:
            return self.engine.live_ids()
        kind, body = next(iter(query.items()))
        if kind == "term":
            ((field, value),) = body.items()
            if self.engine.is_docmap_field(field):
                return self._meta_docs(field, lambda x: pc.equal(x, value))
            return self.engine.term_docs(str(value))
        if kind == "terms":
            ((field, values),) = body.items()
            values = list(values)
            if self.engine.is_docmap_field(field):
                return self._meta_docs(
                    field, lambda x: pc.is_in(x, value_set=pa.array(values)))
            return self.engine.union_docs([str(v) for v in values])
        if kind == "exists":
            field = body["field"]
            if self.engine.is_docmap_field(field):
                return self._meta_docs(field, pc.is_valid)
            tf = getattr(self.engine, "text_field", None)
            if tf is None or field == tf:
                # the indexed text field exists on every indexed doc
                # (legacy manifests without text_field keep the old
                # any-non-meta-field behavior)
                return self.engine.live_ids()
            # unmapped field → matches nothing (OpenSearch exists)
            return np.empty(0, dtype=np.int64)
        if kind == "wildcard":
            ((field, pattern),) = body.items()
            if self.engine.is_docmap_field(field):
                from .termscan import wildcard_to_regex

                regex = wildcard_to_regex(str(pattern))
                return self._meta_docs(field, lambda x: pc.match_substring_regex(x, regex))
            return self.engine.wildcard_docs(str(pattern))
        if kind == "regexp":
            ((field, pattern),) = body.items()
            if self.engine.is_docmap_field(field):
                return self._meta_docs(
                    field, lambda x: pc.match_substring_regex(x, f"^(?:{pattern})$"))
            return self.engine.regexp_docs(str(pattern))
        if kind == "fuzzy":
            ((field, spec),) = body.items()
            if not isinstance(spec, dict):
                spec = {"value": spec}
            kwargs = dict(
                fuzziness=spec.get("fuzziness", "AUTO"),
                prefix_length=int(spec.get("prefix_length", 0)),
                transpositions=bool(spec.get("transpositions", False)),
                max_expansions=spec.get("max_expansions", 50),
            )
            value = str(spec["value"])
            if self.engine.is_docmap_field(field):
                return self._fuzzy_meta(field, value, **kwargs)
            return self.engine.fuzzy_docs(value, **kwargs)
        if kind == "range":
            ((field, conds),) = body.items()
            if not self.engine.is_docmap_field(field):
                raise ValueError(f"range requires a docmap column, got {field!r}")
            if not conds:
                return self.engine.live_ids()
            ops = {"gte": pc.greater_equal, "gt": pc.greater, "lte": pc.less_equal, "lt": pc.less}
            return self._meta_docs(field, lambda x: functools.reduce(
                pc.and_kleene, [ops[op](x, v) for op, v in conds.items()]))
        if kind == "match":
            ((_field, spec),) = body.items()
            if not isinstance(spec, dict):
                # short form ≡ long form with defaults (operator=or) —
                # OpenSearch parity; ParseUtils-style conjunctive matches
                # spell it {"query": …, "operator": "and"} explicitly
                spec = {"query": spec}
            text = str(spec["query"])
            operator = spec.get("operator", "or")  # OpenSearch default
            if operator == "and":
                return np.asarray(self.engine.conjunctive(text), dtype=np.int64)
            terms = self.engine.query_terms(text)
            msm = parse_msm(spec.get("minimum_should_match", 1), len(terms))
            if msm <= 1:
                return self.engine.union_docs(terms)
            per_term = [self.engine.term_docs(t) for t in terms]
            vals, counts = np.unique(np.concatenate(per_term), return_counts=True)
            return vals[counts >= msm]  # each term's postings are unique
        if kind == "match_phrase":
            ((_field, spec),) = body.items()
            if isinstance(spec, dict):
                # long form: {"query": q, "slop": n} — in-order proximity
                return np.asarray(
                    self.engine.phrase(str(spec["query"]), slop=int(spec.get("slop", 0))),
                    dtype=np.int64,
                )
            return np.asarray(self.engine.phrase(str(spec)), dtype=np.int64)
        if kind == "match_phrase_prefix":
            ((_field, text),) = body.items()
            return np.asarray(self.engine.phrase_prefix(str(text)), dtype=np.int64)
        if kind == "match_bool_prefix":
            # OpenSearch match_bool_prefix: every analyzed term as a
            # term query, the LAST as a prefix, combined per operator
            # (default or) — the unordered autocomplete sibling of
            # match_phrase_prefix
            ((_field, spec),) = body.items()
            if not isinstance(spec, dict):
                spec = {"query": spec}
            # ORDERED analyzer tokens — the POSITIONALLY last term is the
            # prefix (query_terms sorts/dedups and would lose it)
            terms = self.engine.analyzer.tokens(str(spec["query"]))
            if not terms:
                return np.empty(0, dtype=np.int64)
            parts = [self.engine.term_docs(t) for t in terms[:-1]]
            parts.append(self.engine.prefix_docs(terms[-1]))
            if spec.get("operator", "or") == "and":
                out = parts[0]
                for p in parts[1:]:
                    out = np.intersect1d(out, p, assume_unique=True)
                    if out.size == 0:
                        break
                return out
            return np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        if kind == "prefix":
            ((field, value),) = body.items()
            if self.engine.is_docmap_field(field):
                return self._meta_docs(
                    field, lambda x: pc.starts_with(x, pattern=str(value)))
            return self.engine.prefix_docs(str(value))
        if kind == "ids":
            values = [int(v) for v in body["values"]]
            # through the live doc ids, so deleted docs drop out
            # (OpenSearch's ids query sees only live documents)
            ids = self.engine.live_ids()
            return ids[np.isin(ids, values)]
        if kind == "constant_score":
            # filter context strips the scoring wrapper entirely
            return self.execute(body["filter"])
        if kind == "dis_max":
            # filter context: a doc matches if ANY sub-query matches
            # (tie_breaker only affects scores) — Lucene DisjunctionMaxQuery
            parts = [self.execute(c) for c in body.get("queries", [])]
            parts = [p for p in parts if p.size]
            if not parts:
                return np.empty(0, dtype=np.int64)
            return np.unique(np.concatenate(parts))
        if kind in ("query_string", "simple_query_string"):
            # Lucene string syntax lowers to this same AST (strict /
            # lenient parse respectively) and re-enters the compiler
            from .querystring import lower_query_string

            return self.execute(lower_query_string(self.engine, query))
        if kind == "bool":
            return self._execute_bool(body)
        raise ValueError(f"unsupported query kind {kind!r}")

    def _fuzzy_meta(self, field: str, value: str, *, fuzziness, prefix_length,
                    transpositions, max_expansions) -> np.ndarray:
        """Fuzzy over a keyword docmap column: expand against the
        column's sorted DISTINCT values (the small side — keyword fields
        are low-cardinality by design) with the fuzzy query's trie walk
        (``termscan.fuzzy_expand``), then one ``is_in`` filter."""
        from .termscan import TermSlice, _rank_matches, auto_fuzziness, fuzzy_expand

        max_edits = (
            auto_fuzziness(value) if fuzziness == "AUTO" else int(fuzziness)
        )
        uniq = pc.unique(pc.drop_null(self.engine.docmap_column(field)))
        if prefix_length:
            uniq = uniq.filter(pc.starts_with(uniq, value[:prefix_length]))
        uniq = uniq.take(pc.sort_indices(uniq))
        terms, dist, _ = fuzzy_expand([(TermSlice(uniq), 0, len(uniq))], value,
                                      max_edits, transpositions)
        matched = terms.take(pa.array(_rank_matches(dist, max_expansions)))
        if not len(matched):
            return np.empty(0, dtype=np.int64)
        return self._meta_docs(field, lambda x: pc.is_in(x, value_set=matched))

    def _execute_bool(self, body: dict) -> np.ndarray:
        result: np.ndarray | None = None
        for clause in list(body.get("must", ())) + list(body.get("filter", ())):
            docs = self.execute(clause)
            result = docs if result is None else np.intersect1d(result, docs, assume_unique=True)
            if result.size == 0:
                break
        shoulds = body.get("should", ())
        if shoulds:
            # OpenSearch filter-context default: pure should → at least
            # one must match; alongside must/filter, should is advisory
            # (scoring-only) unless minimum_should_match says otherwise.
            msm = body.get("minimum_should_match")
            if msm is None:
                msm = 1 if result is None else 0
            else:
                msm = parse_msm(msm, len(shoulds))
            if msm > 0:
                per_clause = [self.execute(c) for c in shoulds]
                vals, counts = np.unique(np.concatenate(per_clause), return_counts=True)
                matched = vals[counts >= msm]  # each clause's docs are unique
                result = (
                    matched if result is None
                    else np.intersect1d(result, matched, assume_unique=True)
                )
        if result is None:
            result = self.engine.live_ids()
        for clause in body.get("must_not", ()):
            docs = self.execute(clause)
            result = np.setdiff1d(result, docs, assume_unique=True)
            if result.size == 0:
                break
        return result
