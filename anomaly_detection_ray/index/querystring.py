"""query_string / simple_query_string — Lucene query-syntax parsers.

OpenSearch exposes two string-syntax front doors that both lower to the
structured query DSL (the reference's own UIs and ad-hoc result-index
searches use them; the engine behind them is the same BooleanQuery
machinery this repo already implements):

``query_string`` (strict — syntax errors raise, like Lucene's parser)::

    field:value  AND/OR/NOT/&&/||  (...)  field:(a OR b)  "a phrase"~slop
    wild*card  fuzz~1  prefix*  term^boost  +required  -excluded
    field:[a TO b]  field:{a TO b}  field:[* TO b}   (bracket ranges,
    inclusive/exclusive mixable, * = open end, [* TO *] = exists)

``simple_query_string`` (lenient — NEVER raises; unparseable input
degrades to a bag of terms)::

    +  (AND)   |  (OR)   -  (negate)   "phrase"~slop   trailing*  term~N

Both parse into the dict AST of ``index/queryast.py`` (bool / match /
term / match_phrase / prefix / wildcard / fuzzy), so filter-context
evaluation, BM25 scoring through the ``_search`` envelope, facets and
pagination all work unchanged on the lowered form.

Documented deviations from Lucene's (famously quirky) parser:
- operator precedence is the clean boolean algebra — AND binds tighter
  than OR, juxtaposed terms combine with ``default_operator`` at that
  operator's precedence level (Lucene's parser is left-associative with
  state-dependent coalescing; OpenSearch's own docs recommend not
  mixing operators for this reason);
- ``NOT x`` lowers to ``bool.must_not`` set difference everywhere,
  including pure-negative queries (Lucene errors on those);
- boosts apply to match leaves (the envelope's per-clause scoring);
  boosts on non-text leaves parse but only affect constant-score 1.0
  rewrites, like OpenSearch's filter-context treatment.

Field scoping: ``field:`` routes to the docmap column when the field is
a metadata column (term / prefix / wildcard semantics), to the indexed
text when it is the text field. Unknown fields raise in query_string
mode and match nothing in simple mode (OpenSearch's unmapped-field
behavior).
"""

from __future__ import annotations

import re
from typing import Callable

__all__ = ["parse_query_string", "parse_simple_query_string", "lower_query_string"]

_QS_TOKEN = re.compile(
    r"""\s*(?:
        (?:(?P<gfield>[A-Za-z_][\w.\-]*):)?(?P<lparen>\() | (?P<rparen>\)) |
        (?:(?P<field>[A-Za-z_][\w.\-]*):)?
        (?: "(?P<phrase>[^"]*)" (?:~(?P<slop>\d+))?
          | (?P<rlo>[\[{])\s*(?P<rfrom>[^\s\]}]+)\s+TO\s+(?P<rto>[^\s\]}]+)\s*(?P<rhi>[\]}])
          | (?P<bare>[^\s()"]+)
        )
    )""",
    re.X,
)

_OPERATORS = {"AND": "and", "&&": "and", "OR": "or", "||": "or", "NOT": "not", "!": "not"}
_BOOST_RE = re.compile(r"\^(\d+(?:\.\d+)?)$")
_FUZZ_RE = re.compile(r"~(\d)?$")


class QueryStringSyntaxError(ValueError):
    """Strict-mode parse failure (unbalanced parens, dangling operator)."""


def _tokenize_qs(q: str) -> list[tuple]:
    """[(kind, payload)] — kind ∈ lparen/rparen/op/term/phrase/range;
    an lparen's payload is the field of a ``field:(…)`` group."""
    out, pos = [], 0
    while pos < len(q):
        m = _QS_TOKEN.match(q, pos)
        if m is None or m.end() == pos:
            if q[pos:].strip() == "":
                break
            raise QueryStringSyntaxError(f"cannot tokenize at {q[pos:]!r}")
        pos = m.end()
        if m.group("lparen"):
            out.append(("lparen", m.group("gfield")))
        elif m.group("rparen"):
            out.append(("rparen", None))
        elif m.group("phrase") is not None:
            slop = int(m.group("slop") or 0)
            out.append(("phrase", (m.group("field"), m.group("phrase"), slop)))
        elif m.group("rlo") is not None:
            # Lucene range syntax: [a TO b] inclusive / {a TO b}
            # exclusive, mixable, * = open end
            out.append(("range", (m.group("field"), m.group("rlo") == "[",
                                  m.group("rfrom"), m.group("rto"),
                                  m.group("rhi") == "]")))
        else:
            bare = m.group("bare")
            if m.group("field") is None and bare in _OPERATORS:
                out.append(("op", _OPERATORS[bare]))
            else:
                out.append(("term", (m.group("field"), bare)))
    return out


class _Parser:
    """Precedence-climbing parser over the token list (OR < AND < NOT)."""

    def __init__(self, tokens: list[tuple], leaf: Callable, default_operator: str):
        self.toks = tokens
        self.i = 0
        self.leaf = leaf
        self.default_op = default_operator.lower()
        # field of the innermost enclosing ``field:(…)`` group, if any
        self.scope: list[str | None] = [None]

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def parse(self) -> dict:
        node = self._or()
        if self.peek()[0] is not None:
            raise QueryStringSyntaxError(f"unexpected {self.peek()[0]}")
        return node

    def _or(self) -> dict:
        parts = [self._and()]
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "or":
                self.i += 1
                parts.append(self._and())
            elif self.default_op == "or" and kind in ("term", "phrase", "range", "lparen"):
                parts.append(self._and())
            else:
                break
        return parts[0] if len(parts) == 1 else {"bool": {"should": parts}}

    def _and(self) -> dict:
        parts = [self._unary()]
        while True:
            kind, val = self.peek()
            if kind == "op" and val == "and":
                self.i += 1
                parts.append(self._unary())
            elif kind == "op" and val == "not":
                # juxtaposed NOT is always exclusion from the current
                # conjunction ("a NOT b" ≡ a AND NOT b — Lucene), never
                # an OR-combined complement; "a OR NOT b" spells it out
                parts.append(self._unary())
            elif self.default_op == "and" and kind in ("term", "phrase", "range", "lparen"):
                parts.append(self._unary())
            else:
                break
        if len(parts) == 1:
            return parts[0]
        # fold NOT children into the same bool's must_not (one pass
        # instead of per-child all-docs complements)
        must, must_not = [], []
        for p in parts:
            if isinstance(p, dict) and set(p) == {"bool"} and set(p["bool"]) == {"must_not"}:
                must_not.extend(p["bool"]["must_not"])
            else:
                must.append(p)
        body = {}
        if must:
            body["must"] = must
        if must_not:
            body["must_not"] = must_not
        return {"bool": body}

    def _unary(self) -> dict:
        kind, val = self.peek()
        if kind == "op" and val == "not":
            self.i += 1
            return {"bool": {"must_not": [self._unary()]}}
        if kind == "lparen":
            self.i += 1
            # field:(a OR b) scopes every unfielded leaf inside to field
            self.scope.append(val or self.scope[-1])
            node = self._or()
            self.scope.pop()
            k2, _ = self.peek()
            if k2 != "rparen":
                raise QueryStringSyntaxError("unbalanced parentheses")
            self.i += 1
            return node
        if kind in ("term", "phrase", "range"):
            self.i += 1
            if val[0] is None and self.scope[-1] is not None:
                val = (self.scope[-1], *val[1:])
            return self.leaf(kind, val)
        raise QueryStringSyntaxError(
            "dangling operator" if kind == "op" else "empty clause"
        )


def _make_leaf(default_field: str, is_meta: Callable[[str], bool], strict: bool,
               text_fields: frozenset = frozenset()):
    """Leaf lowering shared by both modes: prefixes (+/-), boosts,
    fuzzy ~, wildcards, field routing (text vs docmap column).
    ``text_fields`` names ADDITIONAL text fields (the multi-field
    engine's per-field indexes): a leaf scoped to one keeps full text
    semantics (match/phrase/prefix) on that field instead of keyword
    equality."""

    def leaf(kind: str, payload) -> dict:
        if kind == "range":
            field, lo_incl, frm, to, hi_incl = payload
            f = field or default_field
            if not is_meta(f):
                if strict:
                    raise QueryStringSyntaxError(
                        f"range syntax needs a metadata field, got {f!r}")
                return {"ids": {"values": []}}
            conds = {}
            if frm != "*":
                conds["gte" if lo_incl else "gt"] = _coerce(frm)
            if to != "*":
                conds["lte" if hi_incl else "lt"] = _coerce(to)
            if not conds:  # [* TO *] ≡ the field exists
                return {"exists": {"field": f}}
            return {"range": {f: conds}}
        if kind == "phrase":
            field, text, slop = payload
            f = field or default_field
            if f != default_field and f not in text_fields:
                if is_meta(f):
                    # exact keyword equality — phrases don't tokenize
                    # against a docmap column
                    return {"term": {f: text}}
                if strict:
                    raise QueryStringSyntaxError(f"unknown field {f!r}")
                return {"ids": {"values": []}}  # unmapped → no docs
            spec = {"query": text}
            if slop:
                spec["slop"] = slop
            return {"match_phrase": {f: spec if slop else text}}

        field, tok = payload
        neg = False
        while tok and tok[0] in "+-":
            # Lucene's +required is the default conjunction member;
            # -excluded negates (same as NOT)
            neg ^= tok[0] == "-"
            tok = tok[1:]
        if not tok:
            raise QueryStringSyntaxError("bare +/- with no term")
        boost = None
        m = _BOOST_RE.search(tok)
        if m:
            boost = float(m.group(1))
            tok = tok[: m.start()]
        fuzzy, fuzz = False, None
        m = _FUZZ_RE.search(tok)
        if m and "*" not in tok and "?" not in tok:
            fuzzy, fuzz = True, m.group(1)  # bare ~ → AUTO fuzziness
            tok = tok[: m.start()]
        if not tok:
            raise QueryStringSyntaxError("empty term")

        f = field or default_field
        on_text = f == default_field or f in text_fields
        if not on_text and not is_meta(f):
            if strict:
                raise QueryStringSyntaxError(f"unknown field {f!r}")
            return {"ids": {"values": []}}

        if fuzzy:
            node = {"fuzzy": {f: {
                "value": tok,
                "fuzziness": "AUTO" if fuzz is None else int(fuzz),
            }}}
        elif "*" in tok or "?" in tok:
            if tok.endswith("*") and "*" not in tok[:-1] and "?" not in tok:
                node = {"prefix": {f: tok[:-1]}}
            else:
                node = {"wildcard": {f: tok}}
        elif on_text:
            spec = tok if boost is None else {"query": tok, "boost": boost}
            node = {"match": {f: spec}}
        else:
            node = {"term": {f: _coerce(tok)}}
        if neg:
            return {"bool": {"must_not": [node]}}
        return node

    return leaf


def _coerce(tok: str):
    """Keyword-column term values: numbers compare numerically against
    numeric docmap columns (doc_id:100 must not string-compare)."""
    try:
        return int(tok)
    except ValueError:
        try:
            return float(tok)
        except ValueError:
            return tok


def parse_query_string(
    q: str,
    default_field: str,
    is_meta: Callable[[str], bool] = lambda f: False,
    default_operator: str = "or",
    text_fields: frozenset = frozenset(),
) -> dict:
    """Strict Lucene-syntax parse → query-DSL dict. Raises
    :class:`QueryStringSyntaxError` on malformed input (OpenSearch's
    query_string rejects bad syntax with a 400)."""
    toks = _tokenize_qs(q)
    if not toks:
        raise QueryStringSyntaxError("empty query_string")
    leaf = _make_leaf(default_field, is_meta, strict=True, text_fields=text_fields)
    return _Parser(toks, leaf, default_operator).parse()


def _tokenize_sqs(q: str) -> list[tuple]:
    """simple_query_string lexer: + | - " ( ) are single-char operators
    (whitespace optional around them), everything else is term text."""
    out, i, n = [], 0, len(q)
    while i < n:
        c = q[i]
        if c.isspace():
            i += 1
            continue
        if c == "+":
            out.append(("op", "and")); i += 1
        elif c == "|":
            out.append(("op", "or")); i += 1
        elif c == "(":
            out.append(("lparen", None)); i += 1
        elif c == ")":
            out.append(("rparen", None)); i += 1
        elif c == "-":
            out.append(("op", "not")); i += 1
        elif c == '"':
            j = q.find('"', i + 1)
            if j < 0:
                raise QueryStringSyntaxError("unbalanced quote")
            text = q[i + 1:j]
            i = j + 1
            slop = 0
            m = re.match(r"~(\d+)", q[i:])
            if m:
                slop = int(m.group(1)); i += m.end()
            out.append(("phrase", (None, text, slop)))
        else:
            j = i
            while j < n and not q[j].isspace() and q[j] not in '+|()"-':
                j += 1
            # '-' INSIDE a term is literal (kebab-case tokens); only a
            # leading '-' negates, and that case was consumed above
            while j < n and q[j] == "-" and j + 1 < n and not q[j + 1].isspace() \
                    and q[j + 1] not in '+|()"':
                j += 1
                while j < n and not q[j].isspace() and q[j] not in '+|()"-':
                    j += 1
            out.append(("term", (None, q[i:j])))
            i = j
    return out


def parse_simple_query_string(
    q: str,
    default_field: str,
    is_meta: Callable[[str], bool] = lambda f: False,
    default_operator: str = "or",
) -> dict:
    """Lenient parse (OpenSearch simple_query_string NEVER errors):
    malformed syntax degrades to a default_operator bag of the
    alphanumeric terms; an empty/all-operator string matches nothing."""
    leaf = _make_leaf(default_field, is_meta, strict=False)
    try:
        toks = _tokenize_sqs(q)
        if not toks:
            return {"ids": {"values": []}}
        return _Parser(toks, leaf, default_operator).parse()
    except QueryStringSyntaxError:
        words = re.findall(r"[^\s+|()\"-]+", q)
        if not words:
            return {"ids": {"values": []}}
        parts = [leaf("term", (None, w)) for w in words]
        if len(parts) == 1:
            return parts[0]
        key = "must" if default_operator.lower() == "and" else "should"
        return {"bool": {key: parts}}


def lower_query_string(engine, query: dict) -> dict:
    """Lower a top-level {"query_string": …} / {"simple_query_string": …}
    envelope clause to the structured DSL using the engine's schema
    (text field + docmap columns) for field routing."""
    kind = next(iter(query))
    body = query[kind]
    if isinstance(body, str):
        body = {"query": body}
    default_field = body.get("default_field")
    if default_field is None:
        fields = body.get("fields")
        if fields:
            if len(fields) != 1:
                raise ValueError(
                    f"{kind} over multiple fields needs a MultiFieldEngine "
                    "(MultiFieldEngine.query_string_docs); pass exactly one "
                    "field on a single-field engine"
                )
            default_field = fields[0]
        else:
            default_field = engine.text_field or "content"
    op = str(body.get("default_operator", "or"))
    fn = parse_query_string if kind == "query_string" else parse_simple_query_string
    return fn(str(body["query"]), default_field, engine.is_docmap_field, op)
