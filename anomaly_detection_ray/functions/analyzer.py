"""Code-aware text analyzer (tokenizer) — SURVEY.md §2.C7.

The reference plugin assumes the OpenSearch/Lucene analysis chain; per
the north rule we rebuild the minimum surface as a stateless, seedless,
deterministic function:

- ``simple`` mode: lowercase, emit maximal runs of ``[a-z0-9]+``.
  This mode is exactly expressible in ANSI/DuckDB SQL as
  ``regexp_extract_all(lower(text), '[a-z0-9]+')`` and is used for every
  oracle-checked query over the driver's ``documents`` table.
- ``code`` mode: extract ``[A-Za-z0-9_]+`` runs, split on ``_``
  (snake_case), split camelCase boundaries (``fooBar`` → ``foo,bar``;
  ``HTTPServer`` → ``http,server``; ``utf8Decode`` → ``utf8,decode``),
  lowercase, drop stopwords. Used for the source-code corpus
  (input_hint shape ``repo,path,commit,lang,content``).

Analyzers are plain callables with precompiled regexes; construct once
per worker/actor (``__init__``), call per batch. No wall clock, no RNG.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable

# Stopword-like hot tokens of source code — these are the skew drivers
# the north rule calls out ('import', 'return', ...). NOT removed by
# default for indexing (they must be indexable; skew is handled by the
# salted groupby in stages/postings.py) but removable via the
# ``stopwords`` argument for text-analysis features.
CODE_STOPWORDS = frozenset(
    "the a an of to in is it and or not for if else elif then end do while return import "
    "from def class public private static void int this self new null none true false".split()
)

_SIMPLE_TOKEN = re.compile(r"[a-z0-9]+")
_WORD_RUN = re.compile(r"[A-Za-z0-9_]+")
# camelCase boundaries: lower|digit → Upper, and Upper → Upper+lower
# (acronym end): "parseHTTPResponse" → parse | HTTP | Response
_CAMEL = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
# Single-pass code tokenizer (THE code-mode spec; the run-extract +
# snake-split + camel-split formulation is equivalent on real
# identifiers): pieces are acronyms with optional trailing digits
# (``HTTP``, ``KT3``) not running into a Titlecase word, Titlecase
# words (``Response``, ``C9``), or lower/digit runs (``utf8``).
# '_' and punctuation separate naturally.
_CODE_TOKEN = re.compile(r"[A-Z]{2,}[0-9]*(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


class Analyzer:
    """Deterministic tokenizer. ``mode`` ∈ {"simple", "code"}.

    ``simple`` has an exact SQL twin (see module docstring); ``code``
    adds camelCase/snake_case splitting per the north rule.
    """

    def __init__(self, mode: str = "simple", stopwords: Iterable[str] | None = None):
        if mode not in ("simple", "code"):
            raise ValueError(f"unknown analyzer mode: {mode}")
        self.mode = mode
        self.stopwords = frozenset(stopwords) if stopwords is not None else frozenset()

    def tokens(self, text: str) -> list[str]:
        if self.mode == "simple":
            toks = _SIMPLE_TOKEN.findall(text.lower())
        else:
            toks = [t.lower() for t in _CODE_TOKEN.findall(text)]
        if self.stopwords:
            sw = self.stopwords
            toks = [t for t in toks if t not in sw]
        return toks

    def tokens_batch(self, texts: Iterable[str]) -> list[list[str]]:
        tk = self.tokens
        return [tk(t) for t in texts]

    def term_freqs(self, text: str) -> Counter:
        if self.mode == "code" and not self.stopwords:
            # count raw tokens first, lowercase only the distinct ones —
            # O(unique) lowering instead of O(tokens) (index-build hot path)
            raw = Counter(_CODE_TOKEN.findall(text))
            out: Counter = Counter()
            for tok, n in raw.items():
                out[tok.lower()] += n
            return out
        return Counter(self.tokens(text))


# SQL twin of the simple analyzer, kept in ONE place so every oracle in
# __ray_entry__.oracle_sql() tokenizes identically to the Ray pipeline.
SQL_SIMPLE_TOKENS = "regexp_extract_all(lower({col}), '[a-z0-9]+')"
