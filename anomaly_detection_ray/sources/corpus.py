"""Deterministic synthetic source-code corpus — FIXTURES.md F1/F2.

Produces the exact input shape mandated by BASELINE.json's input_hint:
``(repo:string, path:string, commit:string, lang:string,
content:string)`` plus ``doc_id`` and ``content_sha256`` side columns
(the per-row lineage invariant). A pure function of ``(seed, n_docs)``
— no wall clock, no unseeded RNG — mirroring the reference's
deterministic generator
(``/root/reference/dataGeneration/generate-cosine-data-multi-entity.py``)
and its fixed-seed preview path (``ADModelManager.java:486-516``).

Hot stopword-like tokens (``import``, ``return``, ``def``, ``public``)
are injected at zipf-skewed frequency to exercise the salted-groupby
skew path of the index builder.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = ["python", "java", "go", "js", "rust"]
_EXT = {"python": "py", "java": "java", "go": "go", "js": "js", "rust": "rs"}

_HOT = ["import", "return", "def", "public", "static", "class", "self", "value"]

_STEMS = [
    "parse", "build", "merge", "sort", "scan", "index", "query", "batch", "block",
    "token", "term", "score", "rank", "shard", "split", "hash", "tree", "node",
    "stream", "buffer", "cache", "config", "model", "state", "window", "shingle",
    "anomaly", "detect", "threshold", "feature", "entity", "result", "checkpoint",
    "segment", "posting", "doc", "freq", "weight", "vector", "cosine", "filter",
]


def generate_corpus(n_docs: int, seed: int = 42) -> pa.Table:
    rng = np.random.default_rng(seed)
    n_repos = max(1, n_docs // 50)
    repo_idx = rng.integers(0, n_repos, n_docs)
    lang_idx = rng.choice(len(LANGS), size=n_docs, p=[0.35, 0.25, 0.15, 0.15, 0.10])
    # zipf-ish weights over stems (hot head)
    stem_w = 1.0 / np.arange(1, len(_STEMS) + 1) ** 0.9
    stem_w /= stem_w.sum()
    doc_lens = rng.integers(20, 80, n_docs)

    repos, paths, commits, langs, contents, shas = [], [], [], [], [], []
    for i in range(n_docs):
        lang = LANGS[lang_idx[i]]
        repo = f"org{repo_idx[i] % 7}/repo{repo_idx[i]:04d}"
        path = f"src/pkg{rng.integers(0, 9)}/Mod{i % 97}_{i}.{_EXT[lang]}"
        commit = hashlib.sha1(f"{repo}|{path}|{seed}".encode()).hexdigest()
        L = int(doc_lens[i])
        stems = rng.choice(_STEMS, size=2 * L, p=stem_w)
        ids_rng = rng.integers(0, len(_STEMS), 2 * L)
        words = []
        for j in range(L):
            r = rng.random()
            if r < 0.28:  # hot token (skew driver)
                words.append(_HOT[int(rng.integers(0, len(_HOT)) ** 2 // len(_HOT))])
            elif r < 0.55:
                words.append(str(stems[j]))
            elif r < 0.75:
                words.append(str(stems[j]) + str(stems[L + j]).capitalize())  # camelCase
            elif r < 0.9:
                words.append(str(stems[j]) + "_" + str(stems[L + j]))  # snake_case
            else:
                words.append(f"v{ids_rng[j]}")
        content = " ".join(words)
        repos.append(repo)
        paths.append(path)
        commits.append(commit)
        langs.append(lang)
        contents.append(content)
        shas.append(hashlib.sha256(content.encode()).hexdigest())

    return pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "repo": pa.array(repos),
            "path": pa.array(paths),
            "commit": pa.array(commits),
            "lang": pa.array(langs),
            "content": pa.array(contents),
            "content_sha256": pa.array(shas),
        }
    )


def generate_queries(n_queries: int, seed: int = 43) -> pa.Table:
    """F2 reference query set: 1–3 terms; mixes plain stems, camelCase
    compounds (analyzer must split), hot terms, and absent terms."""
    rng = np.random.default_rng(seed)
    qids, texts, modes, ks = [], [], [], []
    for i in range(n_queries):
        nt = int(rng.integers(1, 4))
        terms = []
        for _ in range(nt):
            r = rng.random()
            if r < 0.15:
                terms.append(_HOT[int(rng.integers(0, len(_HOT)))])
            elif r < 0.25:
                a, b = rng.choice(_STEMS, 2)
                terms.append(str(a) + str(b).capitalize())
            elif r < 0.3:
                terms.append("zzabsent" + str(int(rng.integers(0, 5))))
            else:
                terms.append(str(rng.choice(_STEMS)))
        qids.append(f"q{i:04d}")
        texts.append(" ".join(terms))
        modes.append("bm25_topk" if rng.random() < 0.7 else "conjunctive")
        ks.append(10)
    return pa.table({"query_id": qids, "query": texts, "mode": modes, "k": ks})


def write_corpus(out_dir: str, n_docs: int, seed: int = 42, n_files: int = 4) -> list[str]:
    """Write the corpus as several parquet files (the unit of read
    parallelism) — at real scale each file is one input shard."""
    os.makedirs(out_dir, exist_ok=True)
    table = generate_corpus(n_docs, seed)
    paths = []
    for i, chunk in enumerate(np.array_split(np.arange(table.num_rows), n_files)):
        if len(chunk) == 0:
            continue
        p = os.path.join(out_dir, f"corpus-{i:04d}.parquet")
        pq.write_table(table.slice(int(chunk[0]), len(chunk)), p)
        paths.append(p)
    return paths


def generate_corpus_fast(
    n_docs: int,
    seed: int = 42,
    lines_per_doc: tuple[int, int] = (60, 140),
    line_pool: int = 10_000,
    tokens_per_line: int = 12,
) -> pa.Table:
    """Vectorized large-corpus generator (bench scale): a seeded pool of
    ``line_pool`` source-code-like lines (zipf-weighted identifiers,
    camelCase/snake_case compounds, hot stopword-like tokens), each doc a
    seeded sample of lines. Token statistics stay skewed (hot terms ~20%
    of mass) while generation is O(pool + n_docs) instead of O(tokens)."""
    rng = np.random.default_rng(seed)
    # vocabulary ~4k identifiers
    vocab = list(_HOT)
    for a in _STEMS:
        for b in _STEMS[: len(_STEMS) // 2]:
            vocab.append(a + b.capitalize())
            vocab.append(a + "_" + b)
    vocab += [f"v{i}" for i in range(1000)]
    vocab = np.asarray(vocab, dtype=object)
    w = 1.0 / np.arange(1, len(vocab) + 1) ** 0.85
    w /= w.sum()
    # line pool
    tok_idx = rng.choice(len(vocab), size=(line_pool, tokens_per_line), p=w)
    lines = np.asarray([" ".join(vocab[row]) for row in tok_idx], dtype=object)

    n_lines = rng.integers(lines_per_doc[0], lines_per_doc[1], n_docs)
    n_repos = max(1, n_docs // 200)
    repo_idx = rng.integers(0, n_repos, n_docs)
    lang_idx = rng.choice(len(LANGS), size=n_docs, p=[0.35, 0.25, 0.15, 0.15, 0.10])

    contents, shas = [], []
    repos, paths, commits, langs = [], [], [], []
    for i in range(n_docs):
        pick = rng.integers(0, line_pool, n_lines[i])
        content = "\n".join(lines[pick])
        contents.append(content)
        shas.append(hashlib.sha256(content.encode()).hexdigest())
        lang = LANGS[lang_idx[i]]
        repo = f"org{repo_idx[i] % 7}/repo{repo_idx[i]:05d}"
        path = f"src/pkg{i % 13}/Mod{i}.{_EXT[lang]}"
        repos.append(repo)
        paths.append(path)
        commits.append(hashlib.sha1(f"{repo}|{path}|{seed}".encode()).hexdigest())
        langs.append(lang)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n_docs, dtype=np.int64)),
            "repo": pa.array(repos),
            "path": pa.array(paths),
            "commit": pa.array(commits),
            "lang": pa.array(langs),
            "content": pa.array(contents),
            "content_sha256": pa.array(shas),
        }
    )


def write_corpus_fast(out_dir: str, n_docs: int, seed: int = 42, n_files: int = 16) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    per = -(-n_docs // n_files)
    for i in range(n_files):
        lo = i * per
        hi = min(n_docs, lo + per)
        if hi <= lo:
            break
        tbl = generate_corpus_fast(hi - lo, seed=seed + i)
        tbl = tbl.set_column(0, "doc_id", pa.array(np.arange(lo, hi, dtype=np.int64)))
        p = os.path.join(out_dir, f"corpus-{i:04d}.parquet")
        # small row groups: the row group is the unit a range-split read
        # task must decode, so one giant group per file makes
        # override_num_blocks amplify decode work N× (measured 525
        # core-s of read for a 2.2 GB corpus). 2048-row groups align
        # splits with decode units.
        pq.write_table(tbl, p, row_group_size=2048)
        paths.append(p)
    return paths


def write_locality_corpus(out_dir: str, n_docs: int = 30_000, seg_docs: int = 512,
                          seed: int = 7, n_files: int = 8) -> list[str]:
    """Corpus with doc-id vocabulary LOCALITY: on top of the global
    zipf vocabulary, every contiguous segment of ``seg_docs`` docs
    carries its own segment-local identifiers (``seg00042loc0`` …) —
    the repo-clustered layout real code corpora have when files land in
    repo order: a segment-local high-IDF query term confines the
    candidate doc range (the rare-and-dense conjunctive case)."""
    os.makedirs(out_dir, exist_ok=True)
    base = generate_corpus_fast(n_docs, seed=seed)
    contents = base["content"].to_pylist()
    for i in range(n_docs):
        g = i // seg_docs
        loc = " ".join(f"seg{g:05d}loc{j}" for j in range(5))
        contents[i] = contents[i] + "\n" + (loc + "\n") * 3
    tbl = base.set_column(base.column_names.index("content"), "content", pa.array(contents))
    paths = []
    per = -(-n_docs // n_files)
    for i in range(n_files):
        lo, hi = i * per, min(n_docs, (i + 1) * per)
        if hi <= lo:
            break
        p = os.path.join(out_dir, f"corpus-{i:04d}.parquet")
        pq.write_table(tbl.slice(lo, hi - lo), p, row_group_size=2048)
        paths.append(p)
    return paths
