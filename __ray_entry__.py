"""Driver contract for the graft builder (Ray Data target).

``queries()`` exposes every implemented operator/pipeline from
SURVEY.md §2 (registry in ``anomaly_detection_ray/pipelines/queries.py``;
51 of 72 entries oracle-backed); ``oracle_sql()`` holds the
DuckDB-equivalent SQL for each SQL-expressible one (same column names,
same rounding). Genuinely non-SQL ops (RCF detect/forecast scoring,
MinHash/SimHash/winnowing sketches, HLL/t-digest approximations,
highlighting snippets, media decode) register without an oracle →
rows-only check, each with pytest parity/golden coverage instead.

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from anomaly_detection_ray.functions.analyzer import Analyzer
from anomaly_detection_ray.functions.textstats import LANG_PROFILES, QUALITY_STOPWORDS
from anomaly_detection_ray.pipelines.queries import (
    BM25_QUERY,
    CONJ_TERMS,
    DAY_MS,
    EPOCH_2024,
    IVF_QUERY_VEC_ID,
    LC_DELETE_MOD,
    LC_UPDATE_MOD,
    REGISTRY,
)

SF0001 = "/root/testdata/sf0.001"

TOKS = "regexp_extract_all(lower(text), '[a-z0-9]+')"


def entry() -> Any:
    """Flagship: build the inverted index over sf0.001 documents (SPIMI
    + salted merge + manifests) and run the BM25 top-k query — the
    north-rule pipeline end to end."""
    from anomaly_detection_ray.pipelines.queries import q_bm25_topk

    return q_bm25_topk(SF0001)


def queries() -> dict[str, Callable[[str], Any]]:
    return dict(REGISTRY)


def _bm25_scores_cte(where: str = "") -> str:
    """Shared WITH-chain computing BM25 ``scores(doc_id, score)`` for
    BM25_QUERY over ``documents {where}`` — composed by the ranked,
    paginated and collapsed twins."""
    terms = sorted(set(Analyzer("simple").tokens(BM25_QUERY)))
    inlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH toks AS (SELECT doc_id, unnest({TOKS}) AS term FROM documents {where}),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM documents {where}) AS n_docs,
                 (SELECT sum(dl) FROM dl) AS total),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks WHERE term IN ({inlist}) GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks WHERE term IN ({inlist}) GROUP BY term),
scores AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / (s.total * 1.0 / s.n_docs))) ) AS score
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats s
  GROUP BY tf.doc_id)"""


def _bm25_sql(where: str = "", rank_lo: int = 1, rank_hi: int = 10) -> str:
    """``where`` restricts the corpus (e.g. to live docs after a delete
    + compaction — stats and scores then come from the subset only);
    ``rank_lo``/``rank_hi`` select a pagination window."""
    return f"""{_bm25_scores_cte(where)}
SELECT doc_id, rank, score_r FROM (
  SELECT doc_id, round(score, 6) AS score_r,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM scores) t
WHERE rank BETWEEN {rank_lo} AND {rank_hi} ORDER BY rank
"""


def _collapse_sql(k: int = 10) -> str:
    """Twin of ``q_collapsed_search``: the BM25 ranking keeping only the
    best-scoring doc per lang (score desc, doc_id tie-break), re-ranked
    and cut at k."""
    return f"""{_bm25_scores_cte()},
j AS (SELECT s.doc_id, s.score, d.lang
      FROM scores s JOIN documents d USING (doc_id)),
c AS (SELECT doc_id, lang, score,
             row_number() OVER (PARTITION BY lang
                                ORDER BY score DESC, doc_id) AS rn
      FROM j)
SELECT lang, doc_id,
       CAST(row_number() OVER (ORDER BY score DESC, doc_id) AS BIGINT) AS rank,
       round(score, 6) AS score_r
FROM c WHERE rn = 1
ORDER BY rank LIMIT {k}
"""


def _phrase_sql() -> str:
    """Twin of ``q_phrase_search``: a doc matches iff the windowed k-gram
    list of its analyzed tokens contains the phrase — the same windowed
    construction the shingle oracles use."""
    from anomaly_detection_ray.functions.analyzer import Analyzer
    from anomaly_detection_ray.pipelines.queries import PHRASE_QUERY

    toks = Analyzer("simple").tokens(PHRASE_QUERY)
    k = len(toks)
    phrase = " ".join(toks)
    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id FROM t
WHERE len(toks) >= {k} AND list_contains(
  list_transform(generate_series(1, len(toks) - {k - 1}),
                 i -> array_to_string(toks[i:i+{k - 1}], ' ')),
  '{phrase}')
ORDER BY doc_id
"""


def _phrase_slop_sql() -> str:
    """Twin of ``q_phrase_slop_search`` (2-term in-order proximity): some
    occurrence of the first token has the second within the next
    ``1 + slop`` positions."""
    from anomaly_detection_ray.functions.analyzer import Analyzer
    from anomaly_detection_ray.pipelines.queries import PHRASE_QUERY, PHRASE_SLOP

    a, b = Analyzer("simple").tokens(PHRASE_QUERY)
    w = 1 + PHRASE_SLOP
    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id FROM t
WHERE len(list_filter(
  generate_series(1, len(toks)),
  i -> toks[i] = '{a}' AND list_contains(toks[i + 1 : i + {w}], '{b}'))) > 0
ORDER BY doc_id
"""


def _prefix_sql() -> str:
    """Twin of ``q_prefix_search``: any analyzed token starts with the
    prefix."""
    from anomaly_detection_ray.pipelines.queries import PREFIX_QUERY

    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id FROM t
WHERE len(list_filter(toks, x -> starts_with(x, '{PREFIX_QUERY}'))) > 0
ORDER BY doc_id
"""


def _phrase_prefix_sql() -> str:
    """Twin of ``q_phrase_prefix_search``: some window has the head
    tokens consecutively and a last token starting with the prefix."""
    from anomaly_detection_ray.functions.analyzer import Analyzer
    from anomaly_detection_ray.pipelines.queries import PHRASE_PREFIX_QUERY

    toks = Analyzer("simple").tokens(PHRASE_PREFIX_QUERY)
    head, pre = toks[:-1], toks[-1]
    k = len(toks)
    head_eq = " AND ".join(f"toks[i + {j}] = '{t}'" for j, t in enumerate(head))
    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id FROM t
WHERE len(toks) >= {k} AND len(list_filter(
  generate_series(1, len(toks) - {k - 1}),
  i -> {head_eq} AND starts_with(toks[i + {k - 1}], '{pre}'))) > 0
ORDER BY doc_id
"""


def _wildcard_sql() -> str:
    """Twin of ``q_wildcard_search``: any analyzed token LIKE-matches the
    wildcard pattern ('?' → '_', '*' → '%'; the token alphabet [a-z0-9]
    has no LIKE metacharacters to escape)."""
    from anomaly_detection_ray.pipelines.queries import WILDCARD_PATTERN

    like = WILDCARD_PATTERN.replace("*", "%").replace("?", "_")
    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id FROM t
WHERE len(list_filter(toks, x -> x LIKE '{like}')) > 0
ORDER BY doc_id
"""


def _regexp_sql() -> str:
    """Twin of ``q_regexp_search``: anchored RE2 full-match on any token
    (DuckDB regexp_matches is RE2 — same engine family as Arrow's)."""
    from anomaly_detection_ray.pipelines.queries import REGEXP_PATTERN

    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id FROM t
WHERE len(list_filter(toks, x -> regexp_matches(x, '^(?:{REGEXP_PATTERN})$'))) > 0
ORDER BY doc_id
"""


def _fuzzy_sql() -> str:
    """Twin of ``q_fuzzy_search``: any token within ``FUZZY_EDITS``
    Levenshtein edits (transpositions=False mode = DuckDB levenshtein)."""
    from anomaly_detection_ray.pipelines.queries import FUZZY_EDITS, FUZZY_QUERY

    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id FROM t
WHERE len(list_filter(toks, x -> levenshtein(x, '{FUZZY_QUERY}') <= {FUZZY_EDITS})) > 0
ORDER BY doc_id
"""


def _bool_msm_sql() -> str:
    """Twin of ``q_bool_msm_search``: at least MSM_N of the should terms
    present."""
    from anomaly_detection_ray.pipelines.queries import MSM_N, MSM_TERMS

    hits = " + ".join(
        f"list_contains({TOKS}, '{t}')::int" for t in MSM_TERMS
    )
    return f"""
SELECT doc_id FROM documents
WHERE {hits} >= {MSM_N}
ORDER BY doc_id
"""


def _multi_match_sql() -> str:
    """Twin of ``q_multi_match_search`` (best_fields over text + lang):
    text side is the standard BM25 CTE chain; the lang field is a
    single-token document, so its BM25 collapses to the idf —
    tf_norm(1, 1, avgdl=1) = 1 exactly. best_fields = per-doc max via a
    full outer join."""
    from anomaly_detection_ray.pipelines.queries import MM_QUERY

    terms = sorted(set(Analyzer("simple").tokens(MM_QUERY)))
    inlist = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH toks AS (SELECT doc_id, unnest({TOKS}) AS term FROM documents),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                 (SELECT sum(dl) FROM dl) AS total),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks WHERE term IN ({inlist}) GROUP BY doc_id, term),
df AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks WHERE term IN ({inlist}) GROUP BY term),
tscore AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df.df + 0.5) / (df.df + 0.5))
              * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / (s.total * 1.0 / s.n_docs))) ) AS score
  FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats s
  GROUP BY tf.doc_id),
lang_df AS (SELECT lang, count(*) AS df FROM documents GROUP BY lang),
lscore AS (
  SELECT d.doc_id, ln(1 + (s.n_docs - ldf.df + 0.5) / (ldf.df + 0.5)) AS score
  FROM documents d JOIN lang_df ldf USING (lang) CROSS JOIN stats s
  WHERE d.lang IN ({inlist})),
merged AS (
  SELECT coalesce(t.doc_id, l.doc_id) AS doc_id,
         greatest(coalesce(t.score, -1e300), coalesce(l.score, -1e300)) AS score
  FROM tscore t FULL OUTER JOIN lscore l ON t.doc_id = l.doc_id)
SELECT doc_id, rank, score_r FROM (
  SELECT doc_id, round(score, 6) AS score_r,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM merged) x
WHERE rank <= 10 ORDER BY rank
"""


def _lang_id_sql() -> str:
    hits = ",\n  ".join(
        f"len(list_filter(toks, x -> list_contains([{', '.join(repr(w) for w in words)}], x))) AS {lang}"
        for lang, words in LANG_PROFILES
    )
    langs = [lang for lang, _ in LANG_PROFILES]
    greatest = f"greatest({', '.join(langs)})"
    case = " ".join(f"WHEN {lang} = {greatest} THEN '{lang}'" for lang in langs)
    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents),
h AS (SELECT doc_id, {hits} FROM t)
SELECT doc_id, CASE WHEN {greatest} = 0 THEN 'und' {case} END AS lang_pred
FROM h ORDER BY doc_id
"""


def _jaccard_sql() -> str:
    return """
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
           FROM documents WHERE doc_id % 10 = 0),
idx AS (SELECT doc_id, unnest(CASE WHEN len(toks) = 0 THEN []
                                   WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                                   ELSE list_transform(generate_series(1, len(toks) - 2),
                                                       i -> array_to_string(toks[i:i+2], ' ')) END) AS shingle
        FROM t),
sh AS (SELECT DISTINCT doc_id, shingle FROM idx),
dfq AS (SELECT shingle, count(*) AS c FROM sh GROUP BY shingle),
cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
         FROM sh a JOIN sh b USING (shingle) JOIN dfq USING (shingle)
         WHERE dfq.c <= 50 AND a.doc_id < b.doc_id),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT c.doc_a, c.doc_b, count(*) AS i
          FROM cand c
          JOIN sh x ON x.doc_id = c.doc_a
          JOIN sh y ON y.doc_id = c.doc_b AND y.shingle = x.shingle
          GROUP BY c.doc_a, c.doc_b)
SELECT doc_a, doc_b, round(i * 1.0 / (sa.n + sb.n - i), 6) AS jaccard
FROM inter JOIN sizes sa ON sa.doc_id = doc_a JOIN sizes sb ON sb.doc_id = doc_b
WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.01
ORDER BY doc_a, doc_b
"""


def _quality_filter_sql() -> str:
    from anomaly_detection_ray.functions.textstats import GOPHER_BOUNDS, QUALITY_STOPWORDS

    b = GOPHER_BOUNDS
    sw = ", ".join(f"'{w}'" for w in sorted(QUALITY_STOPWORDS))
    return f"""
WITH t AS (SELECT doc_id, text, {TOKS} AS toks FROM documents),
m AS (SELECT doc_id,
             len(toks) AS n_tokens,
             CASE WHEN len(toks) = 0 THEN 0.0
                  ELSE list_sum(list_transform(toks, x -> len(x))) * 1.0 / len(toks) END AS mlen,
             CASE WHEN len(toks) = 0 THEN 0.0
                  ELSE len(list_distinct(toks)) * 1.0 / len(toks) END AS dratio,
             len(list_filter(list_distinct(toks), x -> list_contains([{sw}], x))) AS stopword_hits,
             CASE WHEN len(text) = 0 THEN 0.0
                  ELSE len(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g')) * 1.0 / len(text) END AS sratio
      FROM t)
SELECT doc_id, n_tokens,
       round(mlen, 6) AS mean_token_len,
       round(dratio, 6) AS distinct_ratio,
       stopword_hits,
       round(sratio, 6) AS symbol_ratio,
       (n_tokens >= {b['min_tokens']} AND n_tokens <= {b['max_tokens']}
        AND mlen >= {b['min_mean_len']} AND mlen <= {b['max_mean_len']}
        AND dratio >= {b['min_distinct_ratio']} AND sratio <= {b['max_symbol_ratio']}
        AND stopword_hits >= {b['min_stopword_hits']}) AS keep
FROM m ORDER BY doc_id
"""


def _corpus_clean_sql(decontam: bool = False) -> str:
    """Twin of ``pipelines.clean.corpus_clean``: the quality CTE (same
    bounds), exact dedup via a min-id window over identical text among
    surviving docs, the jaccard pair CTE at threshold 0.5 over the exact
    survivors, and the recursive transitive closure. With ``decontam``,
    the benchmark-overlap stage (8-token shingles vs the doc_id%25==0
    subset, min_overlap=1) removes quality survivors BEFORE dedup —
    mirroring ``corpus_clean(bench_ds=...)``."""
    from anomaly_detection_ray.functions.textstats import GOPHER_BOUNDS, QUALITY_STOPWORDS

    b = GOPHER_BOUNDS
    sw = ", ".join(f"'{w}'" for w in sorted(QUALITY_STOPWORDS))
    w8 = ("CASE WHEN len(toks) = 0 THEN []"
          " WHEN len(toks) < 8 THEN [array_to_string(toks, ' ')]"
          " ELSE list_transform(generate_series(1, len(toks) - 7),"
          " i -> array_to_string(toks[i:i+7], ' ')) END")
    decontam_ctes = f"""
bsh AS (SELECT DISTINCT unnest({w8}) AS shingle FROM qt WHERE doc_id % 25 = 0),
csh AS (SELECT DISTINCT doc_id, unnest({w8}) AS shingle
        FROM qt JOIN q USING (doc_id) WHERE q.keep),
cont AS (SELECT DISTINCT c.doc_id FROM csh c JOIN bsh USING (shingle)),""" if decontam else """
cont AS (SELECT NULL::BIGINT AS doc_id WHERE false),"""
    return f"""
WITH RECURSIVE
qt AS (SELECT doc_id, text, {TOKS} AS toks FROM documents),
qm AS (SELECT doc_id,
             len(toks) AS n_tokens,
             CASE WHEN len(toks) = 0 THEN 0.0
                  ELSE list_sum(list_transform(toks, x -> len(x))) * 1.0 / len(toks) END AS mlen,
             CASE WHEN len(toks) = 0 THEN 0.0
                  ELSE len(list_distinct(toks)) * 1.0 / len(toks) END AS dratio,
             len(list_filter(list_distinct(toks), x -> list_contains([{sw}], x))) AS stopword_hits,
             CASE WHEN len(text) = 0 THEN 0.0
                  ELSE len(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g')) * 1.0 / len(text) END AS sratio
      FROM qt),
q AS (SELECT doc_id,
             (n_tokens >= {b['min_tokens']} AND n_tokens <= {b['max_tokens']}
              AND mlen >= {b['min_mean_len']} AND mlen <= {b['max_mean_len']}
              AND dratio >= {b['min_distinct_ratio']} AND sratio <= {b['max_symbol_ratio']}
              AND stopword_hits >= {b['min_stopword_hits']}) AS keep
      FROM qm),{decontam_ctes}
ek AS (SELECT d.doc_id, min(d.doc_id) OVER (PARTITION BY d.text) AS keeper
       FROM documents d JOIN q USING (doc_id)
       WHERE q.keep AND d.doc_id NOT IN (SELECT doc_id FROM cont)),
t AS (SELECT doc_id, {TOKS} AS toks FROM documents
      WHERE doc_id IN (SELECT doc_id FROM ek WHERE doc_id = keeper)),
idx AS (SELECT doc_id, unnest(CASE WHEN len(toks) = 0 THEN []
                                   WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                                   ELSE list_transform(generate_series(1, len(toks) - 2),
                                                       i -> array_to_string(toks[i:i+2], ' ')) END) AS shingle
        FROM t),
sh AS (SELECT DISTINCT doc_id, shingle FROM idx),
dfq AS (SELECT shingle, count(*) AS c FROM sh GROUP BY shingle),
cand AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
         FROM sh a JOIN sh b USING (shingle) JOIN dfq USING (shingle)
         WHERE dfq.c <= 50 AND a.doc_id < b.doc_id
         GROUP BY a.doc_id, b.doc_id HAVING count(*) >= 2),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT c.doc_a, c.doc_b, count(*) AS i
          FROM cand c
          JOIN sh x ON x.doc_id = c.doc_a
          JOIN sh y ON y.doc_id = c.doc_b AND y.shingle = x.shingle
          GROUP BY c.doc_a, c.doc_b),
pairs AS (SELECT doc_a, doc_b
          FROM inter JOIN sizes sa ON sa.doc_id = doc_a JOIN sizes sb ON sb.doc_id = doc_b
          WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.5),
edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
          UNION ALL SELECT doc_b, doc_a FROM pairs),
walk(node, label) AS (
  SELECT doc_id, doc_id FROM t
  UNION
  SELECT e.b, w.label FROM walk w JOIN edges e ON e.a = w.node
),
cc AS (SELECT node AS doc_id, min(label) AS gid FROM walk GROUP BY node)
SELECT d.doc_id,
       CASE WHEN NOT q.keep THEN 'quality'
            WHEN ct.doc_id IS NOT NULL THEN 'contaminated'
            WHEN ek.doc_id != ek.keeper THEN 'exact_dup'
            WHEN cc.gid < d.doc_id THEN 'near_dup'
            ELSE 'kept' END AS status,
       CASE WHEN NOT q.keep OR ct.doc_id IS NOT NULL THEN -1
            WHEN ek.doc_id != ek.keeper THEN ek.keeper
            ELSE cc.gid END AS group_id
FROM documents d
JOIN q USING (doc_id)
LEFT JOIN cont ct ON ct.doc_id = d.doc_id
LEFT JOIN ek ON ek.doc_id = d.doc_id
LEFT JOIN cc ON cc.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def _pii_redact_sql() -> str:
    """Twin of ``q_pii_redact``: the deterministic PII injection is
    recomputed from doc_id in SQL, then the SAME RE2 patterns redact
    (DuckDB regexp_* is RE2, like Arrow's kernels — byte parity)."""
    from anomaly_detection_ray.stages.pii import PII_PATTERNS

    pats = {name: pat for name, pat, _ in PII_PATTERNS}
    sql = """
WITH aug AS (
  SELECT doc_id,
         text || ' contact user' || doc_id || '@mail.example.com from 10.0.'
              || (doc_id % 256) || '.' || (doc_id % 100) || ' call 555-'
              || lpad(CAST((doc_id * 7) % 1000 AS VARCHAR), 3, '0') || '-'
              || lpad(CAST((doc_id * 37) % 10000 AS VARCHAR), 4, '0') AS text
  FROM documents)
SELECT doc_id,
       regexp_replace(regexp_replace(regexp_replace(text,
           $EMAIL$, '<EMAIL>', 'g'), $IPV4$, '<IP>', 'g'),
           $PHONE$, '<PHONE>', 'g') AS redacted,
       len(regexp_extract_all(text, $EMAIL$)) AS n_email,
       len(regexp_extract_all(text, $IPV4$)) AS n_ipv4,
       len(regexp_extract_all(text, $PHONE$)) AS n_phone
FROM aug ORDER BY doc_id
"""
    for marker, name in (("$EMAIL$", "email"), ("$IPV4$", "ipv4"), ("$PHONE$", "phone")):
        sql = sql.replace(marker, "'" + pats[name] + "'")
    return sql


def _repetition_sql() -> str:
    """Twin of ``q_repetition_signals``: per-doc word counts via
    unnest+group, bigrams via generate_series over the token list."""
    return f"""
WITH toks AS (SELECT doc_id, {TOKS} AS t FROM documents),
sized AS (SELECT doc_id, t, len(t) AS n FROM toks),
words AS (SELECT doc_id, unnest(t) AS w FROM toks),
wc AS (SELECT doc_id, w, count(*) AS c FROM words GROUP BY doc_id, w),
wstats AS (SELECT doc_id, max(c) AS topc, count(*) AS ndist FROM wc GROUP BY doc_id),
big AS (SELECT doc_id, t, n, unnest(generate_series(1, n - 1)) AS i
        FROM sized WHERE n >= 2),
bg AS (SELECT doc_id, t[i] || ' ' || t[i + 1] AS b FROM big),
bc AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b),
bstats AS (SELECT doc_id, max(c) AS topb FROM bc GROUP BY doc_id)
SELECT s.doc_id AS doc_id,
       s.n AS n_tokens,
       round(coalesce(w.topc * 1.0 / nullif(s.n, 0), 0.0), 6) AS top_word_frac,
       round(coalesce((s.n - w.ndist) * 1.0 / nullif(s.n, 0), 0.0), 6) AS dup_word_frac,
       round(CASE WHEN s.n >= 2 THEN b.topb * 1.0 / (s.n - 1) ELSE 0.0 END, 6)
           AS top_bigram_frac
FROM sized s LEFT JOIN wstats w USING (doc_id) LEFT JOIN bstats b USING (doc_id)
ORDER BY doc_id
"""


def _token_count_bpe_sql() -> str:
    """Twin of ``q_token_count_bpe``: the IDENTICAL BPE pre-tokenizer
    split pattern runs under DuckDB's RE2 (pattern is lookahead-free for
    exactly this reason; verified match-for-match vs Python re)."""
    from anomaly_detection_ray.functions.textstats import BPE_SPLIT_PATTERN

    return f"""
SELECT doc_id,
       len(regexp_extract_all(text, '\\S+')) AS n_ws_tokens,
       len(regexp_extract_all(text, $$({BPE_SPLIT_PATTERN})$$)) AS n_bpe_tokens
FROM documents ORDER BY doc_id
"""


def _stratified_sample_sql() -> str:
    """Twin of ``q_stratified_sample`` — the sampling module GENERATES
    its own SQL from the same thresholds and hash formula."""
    from anomaly_detection_ray.pipelines.queries import (
        STRATIFIED_DEFAULT, STRATIFIED_FRACTIONS, STRATIFIED_SEED)
    from anomaly_detection_ray.stages.sampling import stratified_sample_sql

    return stratified_sample_sql(
        "documents", "doc_id", "lang", STRATIFIED_FRACTIONS,
        default_fraction=STRATIFIED_DEFAULT, seed=STRATIFIED_SEED,
        columns="doc_id, lang",
    )


def _chunk_dedup_sql() -> str:
    """Twin of ``q_chunk_dedup``: consecutive k-token chunks, global
    first occurrence by (doc_id, chunk_idx) via row_number over the
    chunk STRING (the engine keys on a 2×64-bit chunk hash)."""
    from anomaly_detection_ray.pipelines.queries import CHUNK_DEDUP_TOKENS as K

    return f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents),
c AS (SELECT doc_id, toks,
             unnest(generate_series(1, CAST(ceil(len(toks) / {K}.0) AS BIGINT))) AS i
      FROM t WHERE len(toks) > 0),
ch AS (SELECT doc_id, i AS chunk_idx,
              array_to_string(toks[(i - 1) * {K} + 1 : i * {K}], ' ') AS chunk
       FROM c),
r AS (SELECT doc_id,
             row_number() OVER (PARTITION BY chunk ORDER BY doc_id, chunk_idx) AS rn
      FROM ch)
SELECT doc_id, count(*) AS n_chunks,
       CAST(sum(CASE WHEN rn = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_kept
FROM r GROUP BY doc_id ORDER BY doc_id
"""


def _mlt_sql() -> str:
    """Twin of ``q_more_like_this``: the seed doc's terms are ranked by
    the same tf·idf interestingness (f · ln(N/df), df ≥ 2, ties by term),
    the top 25 feed the standard disjunctive BM25 CTE, and the seed doc
    itself is excluded — all computed inside the query (the seed text
    comes from the documents table). Same float-exactness class as the
    ``bm25_topk`` twin (both sides do the identical double math)."""
    from anomaly_detection_ray.pipelines.queries import MLT_DOC_ID

    return f"""
WITH toks AS (SELECT doc_id, unnest({TOKS}) AS term FROM documents),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM documents) AS n_docs,
                 (SELECT sum(dl) FROM dl) AS total),
seed AS (SELECT unnest(regexp_extract_all(lower(
             (SELECT text FROM documents WHERE doc_id = {MLT_DOC_ID})),
             '[a-z0-9]+')) AS term),
seedtf AS (SELECT term, count(*) AS f FROM seed GROUP BY term),
dfq AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
sel AS (SELECT s.term FROM seedtf s JOIN dfq d USING (term)
        WHERE d.df >= 2
        ORDER BY s.f * ln((SELECT n_docs FROM stats) * 1.0 / d.df) DESC, s.term
        LIMIT 25),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks
       WHERE term IN (SELECT term FROM sel) GROUP BY doc_id, term),
df2 AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks
        WHERE term IN (SELECT term FROM sel) GROUP BY term),
scores AS (
  SELECT tf.doc_id,
         sum( ln(1 + (s.n_docs - df2.df + 0.5) / (df2.df + 0.5))
              * tf.tf * (1.2 + 1) / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / (s.total * 1.0 / s.n_docs))) ) AS score
  FROM tf JOIN df2 USING (term) JOIN dl USING (doc_id) CROSS JOIN stats s
  GROUP BY tf.doc_id)
SELECT doc_id, rank, score_r FROM (
  SELECT doc_id, round(score, 6) AS score_r,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rank
  FROM scores WHERE doc_id != {MLT_DOC_ID}) t
WHERE rank <= 10 ORDER BY rank
"""


def _temperature_mix_sql() -> str:
    """Twin of ``q_temperature_mix`` — counts, pow thresholds and hash
    all recomputed inside the query."""
    from anomaly_detection_ray.pipelines.queries import TEMP_MIX_ALPHA, TEMP_MIX_SEED
    from anomaly_detection_ray.stages.sampling import temperature_mix_sql

    return temperature_mix_sql("documents", "doc_id", "lang", TEMP_MIX_ALPHA,
                               seed=TEMP_MIX_SEED, columns="doc_id, lang")


def _near_dup_groups_sql() -> str:
    """The jaccard pair CTE (same candidate/df-cap semantics as
    ``_jaccard_sql``) + a recursive transitive closure: each sampled doc's
    group_id = min doc id reachable through pairs with jaccard ≥ 0.01."""
    return """
WITH RECURSIVE
t AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks
      FROM documents WHERE doc_id % 10 = 0),
idx AS (SELECT doc_id, unnest(CASE WHEN len(toks) = 0 THEN []
                                   WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
                                   ELSE list_transform(generate_series(1, len(toks) - 2),
                                                       i -> array_to_string(toks[i:i+2], ' ')) END) AS shingle
        FROM t),
sh AS (SELECT DISTINCT doc_id, shingle FROM idx),
dfq AS (SELECT shingle, count(*) AS c FROM sh GROUP BY shingle),
cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
         FROM sh a JOIN sh b USING (shingle) JOIN dfq USING (shingle)
         WHERE dfq.c <= 50 AND a.doc_id < b.doc_id),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT c.doc_a, c.doc_b, count(*) AS i
          FROM cand c
          JOIN sh x ON x.doc_id = c.doc_a
          JOIN sh y ON y.doc_id = c.doc_b AND y.shingle = x.shingle
          GROUP BY c.doc_a, c.doc_b),
pairs AS (SELECT doc_a, doc_b
          FROM inter JOIN sizes sa ON sa.doc_id = doc_a JOIN sizes sb ON sb.doc_id = doc_b
          WHERE i * 1.0 / (sa.n + sb.n - i) >= 0.01),
edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
          UNION ALL SELECT doc_b, doc_a FROM pairs),
walk(node, label) AS (
  SELECT doc_id, doc_id FROM t
  UNION
  SELECT e.b, w.label FROM walk w JOIN edges e ON e.a = w.node
)
SELECT node AS doc_id, min(label) AS group_id FROM walk GROUP BY node ORDER BY doc_id
"""


def _ann_sql(query_vec_id: int) -> str:
    # NOTE: duckdb's list_cosine_similarity computes in float32 even for
    # DOUBLE[] inputs (≈1e-7 noise → flips 6-dp rounding); spell the dot
    # product out in double precision instead.
    return f"""
WITH x AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v, generate_subscripts(embedding, 1) AS i
           FROM embeddings),
q AS (SELECT i, v FROM x WHERE vec_id = {query_vec_id}),
qn AS (SELECT sqrt(sum(v * v)) AS n FROM q),
norms AS (SELECT vec_id, sqrt(sum(v * v)) AS n FROM x GROUP BY vec_id),
dots AS (SELECT x.vec_id, sum(x.v * q.v) AS d FROM x JOIN q ON x.i = q.i GROUP BY x.vec_id),
s AS (SELECT d.vec_id, d.d / (norms.n * (SELECT n FROM qn)) AS c
      FROM dots d JOIN norms ON norms.vec_id = d.vec_id)
SELECT rank, vec_id, cosine_r FROM (
  SELECT vec_id, round(c, 6) AS cosine_r,
         row_number() OVER (ORDER BY c DESC, vec_id ASC) AS rank FROM s) t
WHERE rank <= 10 ORDER BY rank
"""


def oracle_sql() -> dict[str, str]:
    conj_a, conj_b = CONJ_TERMS
    stop_list = ", ".join(repr(w) for w in sorted(QUALITY_STOPWORDS))
    r0l, r0h = EPOCH_2024, EPOCH_2024 + DAY_MS
    r1l, r1h = EPOCH_2024 + DAY_MS, EPOCH_2024 + 2 * DAY_MS
    r2l, r2h = EPOCH_2024 + 2 * DAY_MS, EPOCH_2024 + 4 * DAY_MS
    return {
        "tpch_q1": """
SELECT l_returnflag, l_linestatus,
       round(sum(l_quantity), 2) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       round(avg(l_quantity), 6) AS avg_qty,
       round(avg(l_extendedprice), 6) AS avg_price,
       count(*) AS count_order
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus
""",
        "min_max_time": """
SELECT CAST(epoch_ms(min(ts)) AS BIGINT) AS min_ts_ms,
       CAST(epoch_ms(max(ts)) AS BIGINT) AS max_ts_ms
FROM events
""",
        "feature_agg_interval": """
WITH e AS (SELECT event_type, CAST(epoch_ms(ts) AS BIGINT) // 600000 * 600000 AS window_start_ms, value FROM events)
SELECT event_type, window_start_ms, window_start_ms + 600000 AS window_end_ms,
       round(min(value), 6) AS f_min, round(max(value), 6) AS f_max,
       round(sum(value), 6) AS f_sum, round(avg(value), 6) AS f_avg,
       count(value) AS f_count
FROM e GROUP BY event_type, window_start_ms ORDER BY event_type, window_start_ms
""",
        "feature_agg_filtered": """
WITH e AS (
  SELECT event_type, CAST(epoch_ms(ts) AS BIGINT) // 600000 * 600000 AS window_start_ms, value
  FROM events
  WHERE value < 100 AND event_type != 'purchase'
    AND (event_type = 'click' OR event_type = 'error' OR starts_with(event_type, 's'))
)
SELECT event_type, window_start_ms, window_start_ms + 600000 AS window_end_ms,
       round(avg(value), 6) AS f_avg, count(value) AS f_count
FROM e GROUP BY event_type, window_start_ms ORDER BY event_type, window_start_ms
""",
        "date_range_agg": f"""
WITH e AS (SELECT CAST(epoch_ms(ts) AS BIGINT) AS t, value FROM events),
b AS (SELECT CASE WHEN t >= {r0l} AND t < {r0h} THEN 0
                  WHEN t >= {r1l} AND t < {r1h} THEN 1
                  WHEN t >= {r2l} AND t < {r2h} THEN 2
                  ELSE -1 END AS range_idx, value FROM e)
SELECT range_idx, round(avg(value), 6) AS f_avg, count(value) AS f_count
FROM b WHERE range_idx >= 0 GROUP BY range_idx ORDER BY range_idx
""",
        "top_entities": """
SELECT user_id, count(*) AS cnt FROM events
GROUP BY user_id ORDER BY cnt DESC, user_id LIMIT 10
""",
        "decayed_top_entities": """
WITH e AS (SELECT user_id, CAST(epoch_ms(ts) AS BIGINT) // 600000 AS n FROM events),
w AS (SELECT user_id, n, max(n) OVER (PARTITION BY user_id) AS nmax FROM e)
SELECT user_id, round(ln(sum(exp(0.125 * (n - nmax)))) + 0.125 * max(nmax), 6) AS priority
FROM w GROUP BY user_id ORDER BY priority DESC, user_id LIMIT 10
""",
        "entity_cardinality": """
SELECT event_type, count(DISTINCT user_id) AS n_users FROM events
GROUP BY event_type ORDER BY event_type
""",
        "value_percentile": """
SELECT event_type, round(quantile_cont(value, 0.5), 6) AS p50 FROM events
GROUP BY event_type ORDER BY event_type
""",
        "calendar_week_agg": """
SELECT event_type,
       CAST(epoch_ms(date_trunc('week', ts)) AS BIGINT) AS window_start_ms,
       round(sum(value), 6) AS f_sum,
       count(value) AS f_count
FROM events
GROUP BY event_type, window_start_ms
ORDER BY event_type, window_start_ms
""",
        "interval_suggest": """
WITH s AS (SELECT DISTINCT CAST(epoch_ms(ts) AS BIGINT) AS t FROM events),
d AS (SELECT t - lag(t) OVER (ORDER BY t) AS g FROM s)
SELECT round(median(g), 1) AS median_gap_ms FROM d WHERE g IS NOT NULL
""",
        "shingle_density": """
WITH w AS (SELECT DISTINCT event_type, CAST(epoch_ms(ts) AS BIGINT) // 600000 * 600000 AS ws FROM events),
c AS (SELECT event_type,
             count(*) OVER (PARTITION BY event_type ORDER BY ws
                            RANGE BETWEEN 4200000 PRECEDING AND CURRENT ROW) AS cnt
      FROM w)
SELECT event_type, count(CASE WHEN cnt = 8 THEN 1 END) AS n_full_shingles
FROM c GROUP BY event_type ORDER BY event_type
""",
        "bm25_topk": _bm25_sql(),
        "phrase_search": _phrase_sql(),
        "phrase_slop_search": _phrase_slop_sql(),
        "prefix_search": _prefix_sql(),
        "phrase_prefix_search": _phrase_prefix_sql(),
        "wildcard_search": _wildcard_sql(),
        "regexp_search": _regexp_sql(),
        "fuzzy_search": _fuzzy_sql(),
        "bool_msm_search": _bool_msm_sql(),
        "delete_search": f"""
SELECT doc_id FROM documents
WHERE list_contains({TOKS}, 'merge') AND doc_id % {LC_DELETE_MOD} != 0
ORDER BY doc_id
""",
        "compacted_bm25": _bm25_sql(
            where=f"WHERE doc_id % {LC_DELETE_MOD} != 0"
        ),
        "update_search": f"""
SELECT doc_id FROM documents
WHERE (doc_id % {LC_UPDATE_MOD} != 0 AND list_contains({TOKS}, 'merge'))
   OR doc_id % {LC_UPDATE_MOD} = 0
ORDER BY doc_id
""",
        "search_facets": f"""
SELECT lang, count(*) AS doc_count FROM documents
WHERE list_contains({TOKS}, 'data')
GROUP BY lang ORDER BY doc_count DESC, lang LIMIT 10
""",
        "search_after_page": _bm25_sql(rank_lo=11, rank_hi=20),
        "collapsed_search": _collapse_sql(),
        "term_suggest": f"""
WITH toks AS (SELECT doc_id, unnest({TOKS}) AS term FROM documents),
stats AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
c1 AS (SELECT 'mergs' AS token, term, levenshtein(term, 'mergs') AS distance, df
       FROM stats WHERE term LIKE 'm%' AND term != 'mergs'
         AND levenshtein(term, 'mergs') <= 2),
c2 AS (SELECT 'windoww' AS token, term, levenshtein(term, 'windoww') AS distance, df
       FROM stats WHERE term LIKE 'w%' AND term != 'windoww'
         AND levenshtein(term, 'windoww') <= 2),
u AS (SELECT * FROM c1 UNION ALL SELECT * FROM c2),
r AS (SELECT token, term, distance, df,
             CAST(row_number() OVER (PARTITION BY token
                  ORDER BY distance, df DESC, term) AS BIGINT) AS rank
      FROM u)
SELECT token, rank, term AS suggestion, distance, df AS freq
FROM r WHERE rank <= 5 ORDER BY token, rank
""",
        "multi_match_search": _multi_match_sql(),
        "term_filter_conjunctive": f"""
SELECT doc_id FROM documents
WHERE list_contains({TOKS}, '{conj_a}') AND list_contains({TOKS}, '{conj_b}')
ORDER BY doc_id
""",
        "filtered_search": f"""
SELECT doc_id FROM documents
WHERE lang = 'en' AND doc_id >= 100 AND doc_id < 400
  AND list_contains({TOKS}, 'data')
ORDER BY doc_id
""",
        "ids_search": f"""
SELECT doc_id FROM documents
WHERE doc_id IN ({", ".join(str(i) for i in range(0, 1200, 13))})
  AND lang = 'en'
ORDER BY doc_id
""",
        "search_stats_agg": f"""
SELECT count(*) AS n_docs,
       min(n_chars) AS min_chars,
       max(n_chars) AS max_chars,
       round(avg(n_chars), 6) AS avg_chars,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       count(DISTINCT source) AS n_sources
FROM documents
WHERE list_contains({TOKS}, 'data') AND lang = 'en'
""",
        "filters_agg": f"""
SELECT count(CASE WHEN lang = 'en' THEN 1 END) AS n_en,
       count(CASE WHEN n_chars < 300 THEN 1 END) AS n_short,
       count(CASE WHEN lang = 'en' AND n_chars < 300 THEN 1 END) AS n_en_short
FROM documents
WHERE list_contains({TOKS}, 'data')
""",
        "extended_stats_agg": f"""
SELECT count(*) AS n_docs,
       round(avg(n_chars), 6) AS avg_chars,
       round(sum(CAST(n_chars AS DOUBLE) * n_chars), 2) AS sum_sq,
       round(var_pop(n_chars), 2) AS variance,
       round(stddev_pop(n_chars), 6) AS std_dev
FROM documents
WHERE list_contains({TOKS}, 'data')
""",
        "search_subaggs": f"""
SELECT lang,
       count(*) AS doc_count,
       round(avg(n_chars), 6) AS avg_chars,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       count(DISTINCT source) AS n_sources
FROM documents
WHERE list_contains({TOKS}, 'data')
GROUP BY lang ORDER BY doc_count DESC, lang LIMIT 10
""",
        "top_hits_by_lang": f"""
WITH hits AS (SELECT doc_id, lang, n_chars FROM documents
              WHERE list_contains({TOKS}, 'data') AND lang IS NOT NULL),
rk AS (SELECT lang, doc_id, n_chars,
              CAST(row_number() OVER (PARTITION BY lang
                   ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rank
       FROM hits)
SELECT lang, rank, doc_id, n_chars FROM rk WHERE rank <= 3
ORDER BY lang, rank
""",
        "sorted_search": f"""
SELECT doc_id,
       CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rank,
       n_chars
FROM documents
WHERE list_contains({TOKS}, 'data')
ORDER BY n_chars DESC, doc_id
LIMIT 15
""",
        "significant_langs": f"""
WITH fg AS (SELECT lang, count(*) AS fg_n FROM documents
            WHERE list_contains({TOKS}, 'data') AND lang IS NOT NULL GROUP BY lang),
fgt AS (SELECT CAST(sum(fg_n) AS DOUBLE) AS n FROM fg),
bg AS (SELECT lang, count(*) AS bg_n FROM documents
       WHERE lang IS NOT NULL GROUP BY lang),
bgt AS (SELECT CAST(sum(bg_n) AS DOUBLE) AS n FROM bg),
s AS (SELECT f.lang, f.fg_n, b.bg_n,
             f.fg_n / (SELECT n FROM fgt) AS fgp,
             b.bg_n / (SELECT n FROM bgt) AS bgp
      FROM fg f JOIN bg b USING (lang))
SELECT lang, fg_n AS doc_count, bg_n AS bg_count,
       round((fgp - bgp) * (fgp / bgp), 6) AS score_r
FROM s WHERE fgp > bgp
ORDER BY (fgp - bgp) * (fgp / bgp) DESC, lang
LIMIT 10
""",
        "composite_page": f"""
SELECT lang, source,
       count(*) AS doc_count,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
WHERE list_contains({TOKS}, 'data')
GROUP BY lang, source
ORDER BY lang, source
LIMIT 7 OFFSET 7
""",
        "query_string_search": f"""
WITH t AS (SELECT doc_id, lang, {TOKS} AS toks FROM documents)
SELECT doc_id FROM t
WHERE lang = 'en'
  AND (list_contains(toks, 'data') OR list_contains(toks, 'merge'))
  AND len(list_filter(toks, x -> starts_with(x, 'sl'))) = 0
ORDER BY doc_id
""",
        "term_stats": f"""
WITH toks AS (SELECT doc_id, unnest({TOKS}) AS term FROM documents)
SELECT term, count(DISTINCT doc_id) AS df, count(*) AS cttf
FROM toks GROUP BY term ORDER BY df DESC, term LIMIT 20
""",
        "doc_token_stats": f"""
WITH t AS (SELECT doc_id, {TOKS} AS toks FROM documents)
SELECT doc_id,
       len(toks) AS n_tokens,
       len(list_distinct(toks)) AS n_distinct,
       round(CASE WHEN len(toks) = 0 THEN 0.0
                  ELSE list_sum(list_transform(toks, x -> length(x))) * 1.0 / len(toks) END, 6) AS mean_token_len,
       round(CASE WHEN len(toks) = 0 THEN 0.0
                  ELSE len(list_filter(toks, x -> list_contains([{stop_list}], x))) * 1.0 / len(toks) END, 6) AS stopword_ratio
FROM t ORDER BY doc_id
""",
        "token_count_bpe": _token_count_bpe_sql(),
        "repetition_signals": _repetition_sql(),
        "pii_redact": _pii_redact_sql(),
        "chunk_for_training": """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS t FROM documents
), sized AS (
  SELECT doc_id, t, len(t) AS n FROM toks WHERE len(t) > 0
), counted AS (
  SELECT doc_id, t, n,
         CASE WHEN n <= 64 THEN 1
              ELSE CAST(ceil((n - 64) / 56.0) AS BIGINT) + 1 END AS n_chunks
  FROM sized
), expl AS (
  SELECT doc_id, t, n, unnest(generate_series(0, n_chunks - 1)) AS chunk_idx FROM counted
)
SELECT doc_id, chunk_idx,
       least(n - chunk_idx * 56, 64) AS n_tokens,
       array_to_string(t[chunk_idx * 56 + 1 : least(chunk_idx * 56 + 64, n)], ' ') AS chunk_text
FROM expl ORDER BY doc_id, chunk_idx
""",
        "doc_nll": f"""
WITH toks AS (SELECT doc_id, unnest({TOKS}) AS term FROM documents),
freq AS (SELECT term, count(*) AS c FROM toks GROUP BY term),
tot AS (SELECT sum(c) AS t FROM freq)
SELECT doc_id, round(-avg(ln(c * 1.0 / (SELECT t FROM tot))), 6) AS nll_nats
FROM toks JOIN freq USING (term)
GROUP BY doc_id ORDER BY doc_id
""",
        "duplicate_spans": f"""
WITH toks AS (SELECT doc_id, {TOKS} AS t FROM documents),
sized AS (SELECT doc_id, t, len(t) AS n FROM toks WHERE len(t) >= 8),
pos AS (SELECT doc_id, t, unnest(generate_series(1, n - 8 + 1)) AS i FROM sized),
grams AS (SELECT doc_id, array_to_string(t[i : i + 7], ' ') AS g FROM pos),
gc AS (SELECT g, count(*) AS c FROM grams GROUP BY g)
SELECT doc_id,
       count(*) AS n_spans,
       count(CASE WHEN c > 1 THEN 1 END) AS n_dup_spans,
       round(count(CASE WHEN c > 1 THEN 1 END) * 1.0 / count(*), 6) AS dup_frac
FROM grams JOIN gc USING (g)
GROUP BY doc_id ORDER BY doc_id
""",
        "ccnet_buckets": f"""
WITH toks AS (SELECT doc_id, unnest({TOKS}) AS term FROM documents),
freq AS (SELECT term, count(*) AS c FROM toks GROUP BY term),
tot AS (SELECT sum(c) AS t FROM freq),
nll AS (SELECT doc_id, round(-avg(ln(c * 1.0 / (SELECT t FROM tot))), 6) AS nll_r
        FROM toks JOIN freq USING (term) GROUP BY doc_id),
r AS (SELECT doc_id, nll_r,
             row_number() OVER (ORDER BY nll_r, doc_id) - 1 AS rk,
             count(*) OVER () AS n
      FROM nll)
SELECT doc_id, nll_r,
       CASE least(2, (3 * rk) // n)
            WHEN 0 THEN 'head' WHEN 1 THEN 'middle' ELSE 'tail' END AS bucket
FROM r ORDER BY doc_id
""",
        "tfidf_keywords": f"""
WITH toks AS (SELECT doc_id, unnest({TOKS}) AS term FROM documents),
tf AS (SELECT doc_id, term, count(*) AS tf FROM toks GROUP BY doc_id, term),
idf AS (SELECT term, count(DISTINCT doc_id) AS df FROM toks GROUP BY term),
n AS (SELECT count(*) AS n FROM documents),
s AS (SELECT doc_id, term,
             round(tf * ln((SELECT n FROM n) * 1.0 / df), 6) AS score
      FROM tf JOIN idf USING (term)),
r AS (SELECT doc_id, term, score,
             row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term) AS rank
      FROM s)
SELECT doc_id, rank, term, score FROM r WHERE rank <= 3 ORDER BY doc_id, rank
""",
        "lang_id": _lang_id_sql(),
        "dedup_exact": """
SELECT min(doc_id) AS doc_id, count(*) AS n_dups FROM documents
GROUP BY text ORDER BY doc_id
""",
        "ngram_jaccard_dup": _jaccard_sql(),
        "near_dup_groups": _near_dup_groups_sql(),
        "quality_filter": _quality_filter_sql(),
        "corpus_clean": _corpus_clean_sql(),
        "corpus_clean_decontam": _corpus_clean_sql(decontam=True),
        "stratified_sample": _stratified_sample_sql(),
        "temperature_mix": _temperature_mix_sql(),
        "chunk_dedup": _chunk_dedup_sql(),
        "more_like_this": _mlt_sql(),
        "decontaminate": """
WITH t AS (SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS toks FROM documents),
w AS (SELECT doc_id, unnest(CASE WHEN len(toks) = 0 THEN []
                                 WHEN len(toks) < 8 THEN [array_to_string(toks, ' ')]
                                 ELSE list_transform(generate_series(1, len(toks) - 7),
                                                     i -> array_to_string(toks[i:i+7], ' ')) END) AS shingle
      FROM t),
dsh AS (SELECT DISTINCT doc_id, shingle FROM w),
bsh AS (SELECT DISTINCT shingle FROM dsh WHERE doc_id % 25 = 0),
ov AS (SELECT d.doc_id, count(*) AS n FROM dsh d JOIN bsh USING (shingle) GROUP BY d.doc_id)
SELECT t.doc_id, coalesce(ov.n, 0) AS n_overlap, coalesce(ov.n, 0) >= 1 AS contaminated
FROM t LEFT JOIN ov USING (doc_id) ORDER BY t.doc_id
""",
        "ann_cosine_topk": _ann_sql(0),
        "ann_ivf_topk": _ann_sql(IVF_QUERY_VEC_ID),
        "embedding_near_dup": """
WITH x AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v, generate_subscripts(embedding, 1) AS i
           FROM embeddings),
norms AS (SELECT vec_id, sqrt(sum(v * v)) AS n FROM x GROUP BY vec_id),
dots AS (SELECT a.vec_id AS va, b.vec_id AS vb, sum(a.v * b.v) AS d
         FROM x a JOIN x b ON a.i = b.i AND a.vec_id < b.vec_id
         GROUP BY a.vec_id, b.vec_id),
c AS (SELECT va AS vec_a, vb AS vec_b, d / (na.n * nb.n) AS cos
      FROM dots JOIN norms na ON na.vec_id = va JOIN norms nb ON nb.vec_id = vb)
SELECT vec_a, vec_b, round(cos, 6) AS cosine_r FROM c
WHERE cos >= 0.4 ORDER BY vec_a, vec_b
""",
        "embedding_dedup_groups": """
WITH RECURSIVE
x AS (SELECT vec_id, unnest(embedding)::DOUBLE AS v, generate_subscripts(embedding, 1) AS i
      FROM embeddings),
norms AS (SELECT vec_id, sqrt(sum(v * v)) AS n FROM x GROUP BY vec_id),
dots AS (SELECT a.vec_id AS va, b.vec_id AS vb, sum(a.v * b.v) AS d
         FROM x a JOIN x b ON a.i = b.i AND a.vec_id < b.vec_id
         GROUP BY a.vec_id, b.vec_id),
pairs AS (SELECT va AS vec_a, vb AS vec_b
          FROM dots JOIN norms na ON na.vec_id = va JOIN norms nb ON nb.vec_id = vb
          WHERE d / (na.n * nb.n) >= 0.4),
edges AS (SELECT vec_a AS a, vec_b AS b FROM pairs
          UNION ALL SELECT vec_b, vec_a FROM pairs),
walk(node, label) AS (
  SELECT vec_id, vec_id FROM embeddings
  UNION
  SELECT e.b, w.label FROM walk w JOIN edges e ON e.a = w.node
)
SELECT node AS vec_id, min(label) AS group_id FROM walk GROUP BY node ORDER BY vec_id
""",
        "impute_linear": """
WITH w AS (
  SELECT event_type,
         CAST(epoch_ms(ts) AS BIGINT) // 600000 * 600000 AS ws,
         round(avg(value), 6) AS v
  FROM events GROUP BY 1, 2
),
g AS (
  SELECT event_type, ws, v,
         row_number() OVER (PARTITION BY event_type ORDER BY ws) - 1 AS i,
         count(*) OVER (PARTITION BY event_type) AS m
  FROM w
),
s AS (
  SELECT event_type, (i // 4) AS si, v,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM g WHERE i % 4 = 0
),
c AS (
  SELECT g.event_type, g.ws, g.i, g.m, nn.n,
         (CAST(g.i AS DOUBLE) / (g.m - 1.0)) * (nn.n - 1.0) AS t
  FROM g JOIN (SELECT event_type, max(n) AS n FROM s GROUP BY event_type) nn USING (event_type)
)
SELECT c.event_type AS event_type, c.ws AS window_start_ms,
       round(CASE WHEN c.n = 1 THEN s0.v
                  WHEN c.i = c.m - 1 THEN slast.v
                  ELSE (1.0 - (c.t - floor(c.t))) * sl.v + (c.t - floor(c.t)) * sr.v
             END, 6) AS value_imputed
FROM c
LEFT JOIN s sl ON sl.event_type = c.event_type AND sl.si = CAST(floor(c.t) AS BIGINT)
LEFT JOIN s sr ON sr.event_type = c.event_type AND sr.si = CAST(floor(c.t) AS BIGINT) + 1
LEFT JOIN s s0 ON s0.event_type = c.event_type AND s0.si = 0
LEFT JOIN s slast ON slast.event_type = c.event_type AND slast.si = c.n - 1
ORDER BY event_type, window_start_ms
""",
        # minhash_near_dup, simhash_sketch, winnow_fingerprints,
        # detect_anomalies, detect_with_rules, top_anomaly_results,
        # media_decode, correlate/insights/forecast/preview:
        # non-SQL-expressible (model scoring / custom hashes) → rows-only.
    }
