"""Query engine: term dictionary + posting decode + BM25 top-k with
impact-bounded pruning (SURVEY.md §2.4/§2.5/§7 step 4).

Mirrors the reference's query-then-fetch pipeline in miniature:
  - per-query collector with bounded top-k and skipping
    (search/query/QueryPhase.java:401 engages ScoreMode.TOP_SCORES ->
    block-max WAND; TopDocsCollectorContext.java:213-217); here a single
    hot term is collected in block-max order over the codec's skip/block-max
    metadata (`wand.term_impact_topk`), exact phrases through an
    impact-bounded verifier, and every other disjunction exhaustively with
    vectorized scoring;
  - boolean set algebra on sorted posting lists
    (index/query/BoolQueryBuilder.java): AND = galloping/selective-block
    intersect, OR = scored union, must_not = sorted diff, filter = unscored
    intersect;
  - analyze-then-combine for match queries
    (index/search/MatchQuery.java:249-291);
  - global collection stats (N, df, avgdl) = the dfs_query_then_fetch scope
    (SURVEY.md §2.14) aggregated over all committed segments.

The stats + term dictionary + decoded-posting cache live in a stateful
searcher, served two ways: `search/distributed.py` gives each Ray actor a
partition of segments plus the collection-wide statistics (installed once
with `set_global_stats`) and merges the per-actor top-k
(SearchPhaseController.mergeTopDocs:221-243 analog); `search/stage.py`
maps a *dataset of queries* over an actor pool in which every actor loads
all segments, so no merge is needed there.

Query dicts (the DSL, mirroring SearchModule.java:780 registrations):
  term, match (or/and), match_phrase, match_phrase_prefix, prefix, wildcard,
  regexp, fuzzy, ids, terms_set, span_near, match_all, meta_term (doc-values
  keyword filter), bool (must/should/must_not/filter), dis_max,
  constant_score, boosting, function_score (field_value_factor),
  more_like_this, simple_query_string
plus "k" (top-k, default 10) and optional "boost" per clause.
"""

from __future__ import annotations

import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from ..analyzer import get_analyzer
from ..codec import (
    BLOCK_SIZE,
    decode_doc_rows,
    decode_position_rows,
    varbyte_decode_rows,
)
from ..index.manifest import committed_segments, live_segments
from ..stages.encode import _PostingsColumns
from .similarity import BM25


def _gather(rows: list[tuple[_PostingsColumns, int]], name: str):
    """Column `name` of `rows` ((columns, row index) pairs), concatenated in
    order -> (flat values, per-row end offsets into them)."""
    parts = []
    for c, s in rows:
        o = c.offsets[name]
        parts.append(c.values[name][o[s]:o[s + 1]])
    return np.concatenate(parts), np.cumsum([p.size for p in parts])


def _first_values(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The first varint of each byte range [starts[i], ends[i]) of data."""
    if (ends <= starts).any():
        raise ValueError("empty postings row")
    b = data[starts]
    out = (b & np.uint8(0x7F)).astype(np.uint64)
    idx = np.flatnonzero(b >= 128)
    j = 1
    while idx.size:
        at = starts[idx] + j
        if j == 9 or (at >= ends[idx]).any():
            raise ValueError("corrupt varbyte stream: a postings row does not "
                             "start with a whole varint")
        b = data[at]
        out[idx] |= (b & np.uint8(0x7F)).astype(np.uint64) << np.uint64(7 * j)
        idx = idx[b >= 128]
        j += 1
    return out


class TermPostings:
    """One term's postings across segments and salt chunks, decoded lazily.

    The term's postings rows (one per (segment, salt chunk)) stay in their
    segments' flat columns: `rows` holds (columns, row index) pairs sorted
    by first doc, and `row_df` their dfs. The rows cover disjoint, ordered
    doc ranges (checked here: overlapping rows raise), so their streams
    concatenate into one doc-ordered posting list — decoded with one
    `varbyte_decode_rows` call per stream — and their block sequences into
    one global block view: `block_last_doc` / `block_max_tf` /
    `block_min_norm` index it directly. The single-term impact collector
    (`wand.term_impact_topk`) orders blocks by these bounds without
    decoding, and decodes single 128-doc blocks on demand via the skip
    offsets. `counters` (the searcher's) counts decode calls."""

    __slots__ = (
        "term", "df", "rows", "row_df", "_counters", "_blocks", "_full",
        "_block_cache", "_pos_merged", "_pos_cache_elems",
    )

    def __init__(self, term: str, pieces: list[tuple[_PostingsColumns, np.ndarray]],
                 counters: Counter | None = None):
        rows = [(c, s) for c, r in pieces for s in r.tolist()]
        if len(rows) > 1:
            first, last = [], []
            for c, r in pieces:
                o = c.offsets["doc_bytes"]
                # the first doc delta is doc0 + 1
                first.append(_first_values(c.values["doc_bytes"], o[r], o[r + 1]))
                last.append(c.values["skip_last_doc"][c.offsets["skip_last_doc"][r + 1] - 1])
            first = np.concatenate(first).astype(np.int64) - 1
            order = np.argsort(first, kind="stable")
            first, last = first[order], np.concatenate(last)[order]
            overlap = np.flatnonzero(first[1:] <= last[:-1])
            if overlap.size:
                i = int(overlap[0])
                raise ValueError(
                    f"postings rows of term {term!r} overlap: a row starting "
                    f"at doc {int(first[i + 1])} begins at or before the "
                    f"previous row's last doc {int(last[i])}")
            rows = [rows[i] for i in order.tolist()]
        self.term = term
        self.rows = rows
        self.row_df = np.array([c.df[s] for c, s in rows], np.int64)
        self.df = int(self.row_df.sum())
        self._counters = Counter() if counters is None else counters
        self._blocks: tuple[np.ndarray, ...] | None = None
        self._full: tuple[np.ndarray, np.ndarray] | None = None
        self._block_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._pos_merged = None  # _merged_positions: its cache, or False
        self._pos_cache_elems = 0  # cached position count (searcher budget)

    def _row_values(self, ri: int, name: str) -> np.ndarray:
        """Column `name` of row ri, a view of its segment's column."""
        c, s = self.rows[ri]
        o = c.offsets[name]
        return c.values[name][o[s]:o[s + 1]]

    def stream_size(self, name: str) -> int:
        """Total length of column `name` over the term's rows, ungathered."""
        return sum(int(c.offsets[name][s + 1] - c.offsets[name][s])
                   for c, s in self.rows)

    def _decode(self, decode, *args):
        """decode(*args), counted as one varbyte decode call."""
        self._counters["varbyte_decodes"] += 1
        return decode(*args)

    def _block_view(self) -> tuple[np.ndarray, ...]:
        """(last_doc, doc_off, tf_off, max_tf, min_norm, row_of_block,
        block_in_row) over the global block sequence, gathered once."""
        if self._blocks is None:
            skips = {}
            for name in _PostingsColumns.SKIPS:
                skips[name], ends = _gather(self.rows, name)
            n_row_blocks = np.diff(ends, prepend=0)
            row_of_block = np.repeat(np.arange(len(self.rows)), n_row_blocks)
            block_in_row = np.arange(int(ends[-1])) - (ends - n_row_blocks)[row_of_block]
            self._blocks = (
                skips["skip_last_doc"].astype(np.int64), skips["skip_doc_off"],
                skips["skip_tf_off"], skips["skip_max_tf"].astype(np.int64),
                skips["skip_min_norm"].astype(np.int64), row_of_block,
                block_in_row)
        return self._blocks

    @property
    def block_last_doc(self) -> np.ndarray:
        return self._block_view()[0]

    @property
    def block_max_tf(self) -> np.ndarray:
        return self._block_view()[3]

    @property
    def block_min_norm(self) -> np.ndarray:
        return self._block_view()[4]

    @property
    def n_blocks(self) -> int:
        return self.block_last_doc.size

    def decode_all(self) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) of every row: one decode call per stream."""
        if self._full is None:
            ids = self._decode(decode_doc_rows,
                               *_gather(self.rows, "doc_bytes"), self.row_df)
            tfs = self._decode(varbyte_decode_rows,
                               *_gather(self.rows, "tf_bytes"),
                               self.row_df).astype(np.int64)
            self._full = (ids, tfs)
        return self._full

    @property
    def doc_ids(self) -> np.ndarray:
        return self.decode_all()[0]

    @property
    def tfs(self) -> np.ndarray:
        return self.decode_all()[1]

    def decode_block(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode global block g only (skip-pointer random access)."""
        hit = self._block_cache.get(g)
        if hit is not None:
            return hit
        last_doc, doc_off, tf_off, _, _, row_of_block, block_in_row = self._block_view()
        ri, bi = int(row_of_block[g]), int(block_in_row[g])
        in_row = g + 1 < row_of_block.size and row_of_block[g + 1] == ri
        n = min(BLOCK_SIZE, int(self.row_df[ri]) - bi * BLOCK_SIZE)
        out = []
        for name, off in (("doc_bytes", doc_off), ("tf_bytes", tf_off)):
            row = self._row_values(ri, name)
            lo = int(off[g])
            hi = int(off[g + 1]) if in_row else row.size
            out.append(self._decode(varbyte_decode_rows, row[lo:hi], [hi - lo],
                                    [n]).astype(np.int64))
        base = int(last_doc[g - 1]) if bi else -1
        ids, tfs = np.cumsum(out[0]) + base, out[1]
        if len(self._block_cache) > 64:
            self._block_cache.clear()
        self._block_cache[g] = (ids, tfs)
        return ids, tfs

    def decode_positions(self, row: int | None = None) -> tuple[np.ndarray, ...]:
        """(ids, pos, starts, cuts) of the docs of every row that stores
        positions, or of row `row` only: doc ids[j]'s absolute positions are
        pos[starts[j]:cuts[j]]. Doc ids and tfs are sliced from
        `decode_all`; the position bytes of all rows decode in one call."""
        ids, tfs = self.decode_all()
        row_df = self.row_df
        if row is None:
            buf, byte_ends = _gather(self.rows, "pos_bytes")
        else:
            d1 = int(row_df[:row + 1].sum())
            d0 = d1 - int(row_df[row])
            ids, tfs, row_df = ids[d0:d1], tfs[d0:d1], row_df[row:row + 1]
            buf = self._row_values(row, "pos_bytes")
            byte_ends = np.array([buf.size])
        pos, lens = self._decode(decode_position_rows, buf, byte_ends, row_df, tfs)
        if not lens.all():
            # the docs of rows that store no positions
            keep = lens > 0
            ids, lens = ids[keep], lens[keep]
        cuts = np.cumsum(lens)
        return ids, pos, cuts - lens, cuts


# Separator between a non-default field name and its term in the unified term
# dictionary (per-field postings, the Lucene field:term key analog). Analyzer
# tokens never contain \x1f, so prefixed keys cannot collide with default-field
# terms; expansion slices over the default field filter it out.
FIELD_SEP = "\x1f"

# Exclusive upper-bound sentinel for dictionary prefix slices: the maximum
# Unicode codepoint, so supplementary-plane terms (possible via keyword/pattern
# tokenizers) still fall inside `prefix..prefix+TERM_MAX` (U+FFFF would not).
TERM_MAX = chr(0x10FFFF)


def _eval_script_src(src: str, env: dict):
    """script / script_score source evaluation: single expressions take
    the fast expression path; sources with statements (`;`, `def`/
    `if`/`for`/`while` heads — the Painless statement grammar) compile
    through the vectorized masked statement interpreter
    (scripting.compile_painless_script), so a script_score with locals,
    branches or a bounded loop works inside a query tree."""
    import re as _re

    from elasticsearch_ray.scripting import (
        compile_painless_script,
        safe_eval_expr,
        safe_eval_script,
    )

    if ";" in src or _re.match(r"\s*(def|if|for|while)\b", src):
        return safe_eval_script(compile_painless_script(src), env)
    return safe_eval_expr(src, env)


class QueryParseError(ValueError):
    """Malformed query_string input (the ParseException analog of Lucene's
    classic QueryParser, surfaced by _validate/query)."""


def parse_query_string(s: str, default_field: str | None = None,
                       strict: bool = False) -> dict:
    """Full query_string grammar (QueryStringQueryBuilder.java / Lucene classic
    QueryParser semantics): field:term, AND/OR/NOT, +/- modifiers, (grouping),
    "phrases", term^boost, wildcards (* ?), fuzzy term~N.

    Lucene's parser is flat-with-modifiers per parenthesis level: AND upgrades
    its two operands to MUST, OR leaves SHOULD, NOT/- prohibits, + requires —
    e.g. `a AND b c` -> +a +b c. Reproduced here.

    With `strict=True` (the _validate/query path) malformed input raises
    QueryParseError like the reference parser's ParseException: unbalanced
    parentheses, an unterminated quote, or a trailing AND/OR/NOT/+/- with no
    operand. The default stays lenient (best-effort parse) so search-path
    behavior is unchanged."""
    import re

    if strict:
        if s.count('"') % 2 != 0:
            raise QueryParseError(f"unterminated phrase quote in {s!r}")
        depth = 0
        for ch in s:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise QueryParseError(f"unbalanced ')' in {s!r}")
        if depth != 0:
            raise QueryParseError(f"unbalanced '(' in {s!r}")
        stripped = s.rstrip()
        if re.search(r"(?:\bAND|\bOR|\bNOT|&&|\|\|)\s*$", stripped) or \
                stripped.endswith(("+", "-", "!")):
            raise QueryParseError(f"dangling operator at end of {s!r}")

    # The phrase alternative admits an optional field prefix so that
    # `title:"data query"` tokenizes as one token (split off in parse_level)
    # rather than letting [^\s()]+ eat `title:"data`.
    toks = re.findall(
        r'\(|\)|(?:[\w.]+:)?"[^"]*"(?:~\d+)?(?:\^[\d.]+)?|[^\s()]+', s)

    def parse_level(i: int, field: str | None) -> tuple[dict, int]:
        clauses: list[tuple[str, dict]] = []  # (occur, query)
        pending_mod: str | None = None  # '+', '-' pending for next clause
        pending_and = False

        def add(qd: dict):
            nonlocal pending_mod, pending_and
            occur = "should"
            if pending_mod == "+":
                occur = "must"
            elif pending_mod == "-":
                occur = "must_not"
            elif pending_and:
                occur = "must"
                # AND also upgrades the previous optional clause
                if clauses and clauses[-1][0] == "should":
                    clauses[-1] = ("must", clauses[-1][1])
            clauses.append((occur, qd))
            pending_mod = None
            pending_and = False

        while i < len(toks):
            t = toks[i]
            if t == ")":
                i += 1
                break
            if t == "(":
                sub, i = parse_level(i + 1, field)
                # optional ^boost stuck to the closing paren is a separate token
                if i < len(toks) and toks[i].startswith("^"):
                    sub = {**sub, "boost": float(toks[i][1:])}
                    i += 1
                add(sub)
                continue
            i += 1
            if t == "AND" or t == "&&":
                pending_and = True
                continue
            if t == "OR" or t == "||":
                continue
            if t == "NOT" or t == "!":
                pending_mod = "-"
                continue
            mod = None
            if t and t[0] in "+-":
                mod, t = t[0], t[1:]
                if not t:
                    continue
            if mod:
                pending_mod = mod
            # field prefix (not inside quotes)
            f = field
            fm = re.match(r'^([\w.]+):(".*)$', t)
            if fm:  # field-scoped phrase: title:"data query"~2^1.5
                f, t = fm.group(1), fm.group(2)
            elif not t.startswith('"') and ":" in t:
                fname, rest = t.split(":", 1)
                if rest == "(":  # not produced by tokenizer; fields bind terms
                    pass
                f, t = fname, rest
                if t == "" and i < len(toks) and toks[i] == "(":
                    sub, i = parse_level(i + 1, f)
                    add(sub)
                    continue
                if not t:
                    continue
            boost = None
            m = re.match(r"^(.*?)\^([\d.]+)$", t)
            if m and not t.startswith('"'):
                t, boost = m.group(1), float(m.group(2))
            if t.startswith('"'):
                m2 = re.match(r'^"([^"]*)"(?:~(\d+))?(?:\^([\d.]+))?$', t)
                phrase = m2.group(1) if m2 else t.strip('"')
                qd: dict = {"kind": "match_phrase", "text": phrase}
                if m2 and m2.group(2):
                    qd["slop"] = int(m2.group(2))
                if m2 and m2.group(3):
                    boost = float(m2.group(3))
            else:
                fz = re.match(r"^(.+?)~(\d*)$", t)
                if fz:
                    qd = {"kind": "fuzzy", "term": fz.group(1).lower(),
                          "fuzziness": int(fz.group(2) or 2)}
                elif "*" in t or "?" in t:
                    if t.endswith("*") and "*" not in t[:-1] and "?" not in t:
                        qd = {"kind": "prefix", "prefix": t[:-1].lower()}
                    else:
                        qd = {"kind": "wildcard", "pattern": t.lower()}
                else:
                    qd = {"kind": "match", "text": t}
            if f is not None:
                qd["field"] = f
            if boost is not None:
                qd["boost"] = boost
            add(qd)

        must = [q for o, q in clauses if o == "must"]
        should = [q for o, q in clauses if o == "should"]
        must_not = [q for o, q in clauses if o == "must_not"]
        if len(should) == 1 and not must and not must_not:
            return should[0], i
        return {"kind": "bool", "must": must, "should": should,
                "must_not": must_not}, i

    tree, _ = parse_level(0, default_field)
    return tree


def parse_simple_query_string(s: str, flags: str = "ALL",
                              default_operator: str = "or") -> dict:
    """simple_query_string parser (Lucene SimpleQueryParser operator set,
    engaged by SimpleQueryStringBuilder): whitespace clauses joined by
    the default operator, `+` explicit AND, `|` explicit OR (both
    left-associative, equal precedence; same-operator chains flatten),
    `-` clause negation, `"..."` phrases with `~N` slop, trailing `*`
    prefix clauses, `~N` term fuzziness, `(...)` grouping. `flags`
    (SimpleQueryStringFlag set, `|`-joined: AND OR NOT PHRASE PREFIX
    FUZZY SLOP NEAR PRECEDENCE ALL NONE) disables operators — a
    disabled operator's character is literal term text, exactly the
    reference's degradation behavior."""
    allowed = {f.strip().upper() for f in flags.split("|")} if flags else set()

    def has(f: str) -> bool:
        return "ALL" in allowed or f in allowed or \
            (f == "SLOP" and "NEAR" in allowed)

    # ---- tokenize into (type, payload) ----
    ops_chars = ""
    if has("AND"):
        ops_chars += "+"
    if has("OR"):
        ops_chars += "|"
    group_chars = "()" if has("PRECEDENCE") else ""
    toks: list[tuple] = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in ops_chars:
            toks.append(("op", "and" if ch == "+" else "or"))
            i += 1
            continue
        if ch in group_chars:
            toks.append(("lp",) if ch == "(" else ("rp",))
            i += 1
            continue
        if ch == "-" and has("NOT"):
            toks.append(("neg",))
            i += 1
            continue
        if ch == '"' and has("PHRASE"):
            j = s.find('"', i + 1)
            if j == -1:
                # Lenient like Lucene's SimpleQueryParser: an unterminated
                # quote consumes the remainder of the input as the phrase.
                j = n
            if j > i:
                text = s[i + 1:j]
                i = j + 1
                slop = 0
                if i < n and s[i] == "~" and has("SLOP"):
                    k = i + 1
                    while k < n and s[k].isdigit():
                        k += 1
                    if k > i + 1:
                        slop = int(s[i + 1:k])
                        i = k
                q = {"kind": "match_phrase", "text": text}
                if slop:
                    q["slop"] = slop
                toks.append(("clause", q))
                continue
        # term: runs until whitespace / an ACTIVE operator char
        stop = set(ops_chars + group_chars)
        if has("PHRASE"):
            stop.add('"')
        j = i
        while j < n and not s[j].isspace() and s[j] not in stop:
            j += 1
        word = s[i:j]
        i = j
        fuzz = None
        m = None
        import re as _re

        if has("FUZZY"):
            m = _re.fullmatch(r"(.+?)~(\d+)", word)
        if m:
            word, fuzz = m.group(1), int(m.group(2))
            q = {"kind": "fuzzy", "term": word.lower(),
                 "fuzziness": fuzz, "transpositions": True}
        elif word.endswith("*") and len(word) > 1 and has("PREFIX"):
            q = {"kind": "prefix", "prefix": word[:-1].lower()}
        else:
            q = {"kind": "match", "text": word}
        toks.append(("clause", q))

    # ---- parse: left-fold with parens ----
    def parse_seq(pos: int, depth: int) -> tuple[dict | None, int]:
        node: dict | None = None
        node_op = None  # operator kind the current bool was built for
        pending_op = None
        pending_neg = False

        def attach(q: dict, op: str, neg: bool):
            nonlocal node, node_op
            if node is None:
                if neg:
                    node = {"kind": "bool", "should": [], "must": [],
                            "must_not": [q]}
                    node_op = op
                else:
                    node = {"kind": "bool", "should": [q], "must": [],
                            "must_not": []}
                    node_op = op
                return
            bucket = "must" if op == "and" else "should"
            if node_op != op and (node["must"] or len(node["should"]) > 1):
                node = {"kind": "bool", "should": [node], "must": [],
                        "must_not": []}
            node_op = op
            if neg:
                node["must_not"].append(q)
            elif op == "and":
                # promote existing should singleton into the must group
                if node["should"] and not node["must"]:
                    node["must"] = node.pop("should")
                    node["should"] = []
                node["must"].append(q)
            else:
                if node["must"]:
                    node = {"kind": "bool", "should": [node, q],
                            "must": [], "must_not": []}
                else:
                    node[bucket].append(q)

        while pos < len(toks):
            t = toks[pos]
            if t[0] == "rp":
                if depth:
                    pos += 1
                    break
                pos += 1  # stray ')' outside a group: ignore
                continue
            if t[0] == "op":
                pending_op = t[1]
                pos += 1
                continue
            if t[0] == "neg":
                pending_neg = True
                pos += 1
                continue
            if t[0] == "lp":
                sub, pos = parse_seq(pos + 1, depth + 1)
                if sub is not None:
                    attach(sub, pending_op or default_operator, pending_neg)
                pending_op, pending_neg = None, False
                continue
            attach(t[1], pending_op or default_operator, pending_neg)
            pending_op, pending_neg = None, False
            pos += 1
        return node, pos

    node, _ = parse_seq(0, 0)
    if node is None:
        return {"kind": "bool", "should": [], "must": [], "must_not": []}
    return node


def _sloppy_freq(lists: list[np.ndarray], slop: int) -> float:
    """Lucene SloppyPhraseMatcher match enumeration (no-repeats case) over
    phrase-adjusted position lists: freq = sum of 1/(1+matchLength) per
    emitted match. [Lucene 8.5, public algorithm]"""
    import heapq

    ptr = [0] * len(lists)
    heap = [(int(pl[0]), ti) for ti, pl in enumerate(lists)]
    heapq.heapify(heap)
    end = max(int(pl[0]) for pl in lists)
    freq = 0.0
    pos, ti = heapq.heappop(heap)
    match_len = end - pos
    nxt = heap[0][0] if heap else pos
    while True:
        if ptr[ti] + 1 < len(lists[ti]):
            ptr[ti] += 1
            p = int(lists[ti][ptr[ti]])
            if p > end:
                end = p
            if p > nxt:
                if match_len <= slop:
                    freq += 1.0 / (1.0 + match_len)
                heapq.heappush(heap, (p, ti))
                pos, ti = heapq.heappop(heap)
                match_len = end - pos
                nxt = heap[0][0] if heap else pos
            else:
                ml2 = end - p
                if ml2 < match_len:
                    match_len = ml2
        else:
            if match_len <= slop:
                freq += 1.0 / (1.0 + match_len)
            return freq


def _sloppy_freq_rpts(lists: list[np.ndarray], offsets: list[int],
                      groups: list[int], slop: int) -> float:
    """Lucene SloppyPhraseMatcher with the repeats machinery [Lucene 8.5,
    public algorithm]: phrase positions (pps) whose terms repeat inside the
    phrase form repeat groups; no two pps of one group may sit on the same
    term position (tpPos = adjusted position + offset).  On collision the
    *lesser* pp — by (adjusted position, offset) — advances, following the
    switching pp until its group is collision-free; a pp exhausting while
    resolving ends the document.  Queue order is (position, offset, ord),
    identical to Lucene's PhraseQueue comparator; the `next` watermark is
    deliberately NOT recomputed after collision resolution moves queued pps,
    matching the reference's stale-top behavior.  freq = sum of
    1/(1+matchLength) per emitted match.

    `lists` are phrase-adjusted position arrays per pp (repeated terms share
    the same underlying doc positions, each adjusted by its own offset),
    `offsets` the phrase offsets, `groups[i]` the repeat-group id of pp i or
    -1.  Mirrors ES's use via PhraseQuery/MatchQuery slop
    (server/src/main/java/org/elasticsearch/index/search/MatchQuery.java:158).
    """
    k = len(lists)
    cur = [0] * k
    pos = [int(l[0]) for l in lists]
    size = [len(l) for l in lists]
    gmembers: dict[int, list[int]] = {}
    for i, g in enumerate(groups):
        if g >= 0:
            gmembers.setdefault(g, []).append(i)
    has_rpts = bool(gmembers)
    end = max(pos)

    def advance(i: int) -> bool:
        nonlocal end
        cur[i] += 1
        if cur[i] >= size[i]:
            return False
        p = int(lists[i][cur[i]])
        pos[i] = p
        if p > end:
            end = p
        return True

    def collide(i: int) -> int:
        tp = pos[i] + offsets[i]
        for j in gmembers[groups[i]]:
            if j != i and pos[j] + offsets[j] == tp:
                return j
        return -1

    def advance_rpts(i: int) -> bool:
        # follow the switching pp, always advancing the lesser of the pair
        if groups[i] < 0:
            return True
        while True:
            j = collide(i)
            if j < 0:
                return True
            i = i if (pos[i], offsets[i]) < (pos[j], offsets[j]) else j
            if not advance(i):
                return False

    # init: place first positions, then bring each repeat group to pairwise
    # distinct term positions (initComplex/advanceRepeats)
    if has_rpts:
        for i in range(k):
            if groups[i] >= 0 and not advance_rpts(i):
                return 0.0

    waiting = set(range(k))

    def pop_min() -> int:
        i = min(waiting, key=lambda x: (pos[x], offsets[x], x))
        waiting.discard(i)
        return i

    freq = 0.0
    i = pop_min()
    match_len = end - pos[i]
    nxt = min((pos[j] for j in waiting), default=pos[i])
    while True:
        if not advance(i):
            break
        if has_rpts and not advance_rpts(i):
            break
        if pos[i] > nxt:
            if match_len <= slop:
                freq += 1.0 / (1.0 + match_len)
            waiting.add(i)
            i = pop_min()
            nxt = min((pos[j] for j in waiting), default=pos[i])
            match_len = end - pos[i]
        else:
            ml2 = end - pos[i]
            if ml2 < match_len:
                match_len = ml2
    if match_len <= slop:
        freq += 1.0 / (1.0 + match_len)
    return freq


def levenshtein_vec(query: str, cands: np.ndarray) -> np.ndarray:
    """Levenshtein distance from `query` to every string in `cands`,
    vectorized over candidates: the DP table rows are (n_cands, maxlen+1)
    numpy arrays, so cost is O(len(query) * maxlen) numpy ops regardless of
    candidate count (the FuzzyQuery automaton analog for batch expansion)."""
    n = cands.size
    if n == 0:
        return np.empty(0, np.int32)
    cand_s = cands.astype(str)
    maxlen = int(np.char.str_len(cand_s).max()) if n else 0
    # (n, maxlen) codepoint matrix, 0-padded
    mat = cand_s.astype(f"U{max(maxlen, 1)}").view(np.uint32).reshape(n, -1)
    lens = np.char.str_len(cand_s)
    prev = np.broadcast_to(np.arange(maxlen + 1, dtype=np.int32), (n, maxlen + 1)).copy()
    for i, ch in enumerate(query, 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        sub = prev[:, :-1] + (mat[:, :maxlen] != ord(ch))
        dele = prev[:, 1:] + 1
        best = np.minimum(sub, dele)
        # insertion column dependency -> scan over maxlen (small)
        for j in range(1, maxlen + 1):
            cur[:, j] = np.minimum(best[:, j - 1], cur[:, j - 1] + 1)
        prev = cur
    return prev[np.arange(n), lens].astype(np.int32)


def osa_vec(query: str, cands: np.ndarray) -> np.ndarray:
    """Optimal-string-alignment distance (Levenshtein + adjacent
    transposition counted as ONE edit, no re-edit of transposed pairs) —
    Lucene FuzzyQuery's `transpositions=true` automaton semantics
    (LevenshteinAutomata with transpositions). Vectorized like
    levenshtein_vec; a third DP row carries the transposition source.

    NOTE: OSA, not unrestricted Damerau — they agree at distance <= 1 and
    differ only on re-edited transposed pairs at distance >= 2."""
    n = cands.size
    if n == 0:
        return np.empty(0, np.int32)
    cand_s = cands.astype(str)
    maxlen = int(np.char.str_len(cand_s).max()) if n else 0
    mat = cand_s.astype(f"U{max(maxlen, 1)}").view(np.uint32).reshape(n, -1)
    lens = np.char.str_len(cand_s)
    prev = np.broadcast_to(
        np.arange(maxlen + 1, dtype=np.int32), (n, maxlen + 1)).copy()
    prev2 = None
    for i, ch in enumerate(query, 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        sub = prev[:, :-1] + (mat[:, :maxlen] != ord(ch))
        dele = prev[:, 1:] + 1
        best = np.minimum(sub, dele)
        if i >= 2 and maxlen >= 2:
            # transposition: query[i-2:i] == cand[j-2:j] reversed
            t_ok = (mat[:, 1:maxlen] == ord(query[i - 2])) & \
                   (mat[:, : maxlen - 1] == ord(ch))
            tr = prev2[:, : maxlen - 1] + 1
            best[:, 1:] = np.where(t_ok, np.minimum(best[:, 1:], tr),
                                   best[:, 1:])
        for j in range(1, maxlen + 1):
            cur[:, j] = np.minimum(best[:, j - 1], cur[:, j - 1] + 1)
        prev2, prev = prev, cur
    return prev[np.arange(n), lens].astype(np.int32)


class _Segment:
    """Term dictionary + postings columns for one segment.

    Two residency modes (SCALE.md §9):
      eager (default for small segments): whole postings table in memory,
        as one `_PostingsColumns`.
      lazy: only the term dictionary (term column + row->file/row-group map)
        is resident — O(vocab) memory; posting rows are fetched on demand by
        reading the covering parquet row group (LRU-cached) and taking the
        rows out of it, so cached terms do not pin row groups. This is the
        disk-resident term dictionary that lets one searcher own arbitrarily
        large segments: memory = dictionary + hot row groups only.
    """

    _RG_CACHE_CAP = 8

    def __init__(self, seg_dir: str, lazy: bool = False):
        import pyarrow.parquet as pq

        from ..sources.reader import list_parquet_files

        self.dir = seg_dir
        self.lazy = lazy
        pdir = os.path.join(seg_dir, "postings")
        self._files = list_parquet_files(pdir)
        if not lazy:
            t = pads.dataset(self._files).to_table(
                columns=["term", *_PostingsColumns.COLUMNS]).combine_chunks()
            self._cols = _PostingsColumns(t)
            self.terms = np.asarray(t["term"])
            self._dfs = self._cols.df
        else:
            # dictionary-only projected read (term column, in file/row order
            # matching the global row index used below)
            t = pads.dataset(self._files).to_table(columns=["term", "df"])
            self.terms = np.asarray(t["term"])
            self._dfs = t["df"].to_numpy()
            # row -> (file_idx, row_group_idx, row_within_rg)
            file_rows, rg_bounds = [], []
            for fi, f in enumerate(self._files):
                md = pq.ParquetFile(f).metadata
                sizes = [md.row_group(i).num_rows for i in range(md.num_row_groups)]
                file_rows.append(sum(sizes))
                rg_bounds.append(np.cumsum([0] + sizes))
            self._file_row_start = np.cumsum([0] + file_rows)
            self._rg_bounds = rg_bounds
            self._pf: dict[int, "pq.ParquetFile"] = {}
            self._rg_cache: dict[tuple[int, int], pa.Table] = {}
        order = np.argsort(self.terms, kind="stable")
        self._sorted_terms = self.terms[order]
        self._order = order

    def term_dfs(self):
        """(terms, dfs) arrays — the resident dictionary view."""
        return self.terms, self._dfs

    def rows_for(self, term: str) -> np.ndarray:
        lo = np.searchsorted(self._sorted_terms, term, side="left")
        hi = np.searchsorted(self._sorted_terms, term, side="right")
        return self._order[lo:hi]

    def prefix_rows(self, prefix: str) -> np.ndarray:
        lo = np.searchsorted(self._sorted_terms, prefix, side="left")
        hi = np.searchsorted(self._sorted_terms, prefix + TERM_MAX, side="left")
        return self._order[lo:hi]

    def pieces(self, rows: np.ndarray) -> list[tuple[_PostingsColumns, np.ndarray]]:
        """(columns, row indexes into them) covering the segment rows
        `rows`: one piece in eager mode, one per row group in lazy mode."""
        if not rows.size:
            return []
        if not self.lazy:
            return [(self._cols, rows)]
        fi = np.searchsorted(self._file_row_start, rows, side="right") - 1
        within_file = rows - self._file_row_start[fi]
        out = []
        for f in np.unique(fi).tolist():
            in_file = within_file[fi == f]
            bounds = self._rg_bounds[f]
            rg = np.searchsorted(bounds, in_file, side="right") - 1
            for g in np.unique(rg).tolist():
                taken = self._row_group(f, g).take(in_file[rg == g] - bounds[g])
                out.append((_PostingsColumns(taken), np.arange(len(taken))))
        return out

    def _row_group(self, fi: int, rg: int) -> pa.Table:
        import pyarrow.parquet as pq

        key = (fi, rg)
        t = self._rg_cache.get(key)
        if t is None:
            pf = self._pf.get(fi)
            if pf is None:
                pf = self._pf[fi] = pq.ParquetFile(self._files[fi])
            t = pf.read_row_group(rg, columns=list(_PostingsColumns.COLUMNS))
            if len(self._rg_cache) >= self._RG_CACHE_CAP:
                self._rg_cache.pop(next(iter(self._rg_cache)))
            self._rg_cache[key] = t
        return t


class IndexSearcher:
    def __init__(
        self,
        index_dir: str,
        *,
        k1: float = 1.2,
        b: float = 0.75,
        score_mode: str = "lucene",
        analyzer: str | None = None,
        cache_terms: int = 256,
        segments: list[str] | None = None,
        lazy: bool | None = None,
        main_field: str = "content",
        field_aliases: dict[str, str] | None = None,
        field_analyzers: dict[str, str] | None = None,
        search_analyzers: dict[str | None, str] | None = None,
        similarity=None,
    ):
        # alternative similarity (SimilarityProviders DFR/IB/LM/boolean):
        # an altsim.make_similarity object driving tf-based scoring through
        # _term_scores; None = BM25 (the default). Positional weights keep
        # BM25 (see altsim module docstring for the parity scope).
        self.alt_sim = similarity
        self.index_dir = index_dir
        self.main_field = main_field
        # alias field type (index/mapper/FieldAliasMapper.java): query-time
        # name indirection, resolved before any field lookup
        self.field_aliases = dict(field_aliases or {})
        # per-field query-time analyzers (PerFieldAnalyzerWrapper analog):
        # field name -> analyzer name; unlisted fields use the main analyzer
        self.field_analyzers = dict(field_analyzers or {})
        # search_analyzer mapping option (TextFieldMapper#searchAnalyzer):
        # QUERY-time override per field; key None = the main field. Index
        # tokens are untouched — the classic index-ngram/search-plain and
        # search-time-synonym setups
        self.search_analyzers = dict(search_analyzers or {})
        manifests = live_segments(committed_segments(index_dir))
        if segments is not None:
            manifests = {k: v for k, v in manifests.items() if k in set(segments)}
        if not manifests:
            raise ValueError(f"no committed segments under {index_dir}")
        self.manifests = manifests
        # (sorted keys, df, ttf) installed by set_global_stats
        self._global_terms: tuple[np.ndarray, ...] | None = None
        if lazy is None:
            # auto: go disk-resident when the postings exceed ~256 MB
            from ..sources.reader import list_parquet_files

            total = sum(
                os.path.getsize(f)
                for sid in manifests
                for f in list_parquet_files(os.path.join(index_dir, sid, "postings"))
            )
            lazy = total > (256 << 20)
        self.lazy = lazy
        self.segments = [
            _Segment(os.path.join(index_dir, sid), lazy=lazy) for sid in manifests
        ]
        first = next(iter(manifests.values()))
        self.analyzer = get_analyzer(analyzer or first.analyzer)
        self.n_docs = sum(m.doc_count for m in manifests.values())
        self.sum_doc_len = sum(m.sum_doc_len for m in manifests.values())
        self.avgdl = self.sum_doc_len / max(self.n_docs, 1)
        self.bm25 = BM25(k1=k1, b=b, mode=score_mode)
        self._norm_cache32 = self.bm25.norm_cache(self.avgdl)
        self.max_doc = max(m.doc_id_max for m in manifests.values())
        # dense per-doc arrays (doc_ids are globally dense by construction)
        self.norm_bytes = np.zeros(self.max_doc + 1, dtype=np.uint8)
        self.doc_lens = np.zeros(self.max_doc + 1, dtype=np.int32)
        self._has_doc = np.zeros(self.max_doc + 1, dtype=bool)
        self._meta_tables = []
        for sid in manifests:
            mt = pads.dataset(os.path.join(index_dir, sid, "docmeta")).to_table()
            ids = mt["doc_id"].to_numpy()
            self.norm_bytes[ids] = mt["norm_byte"].to_numpy().astype(np.uint8)
            self.doc_lens[ids] = mt["doc_len"].to_numpy().astype(np.int32)
            self._has_doc[ids] = True
            self._meta_tables.append(mt)
        self._docmeta: pa.Table | None = None
        self._term_cache: dict[str, TermPostings | None] = {}
        self._pos_cache_total = 0  # searcher-wide cached-position budget
        self._cache_cap = cache_terms
        # lookup counters, bumped once per lookup or decode call:
        # term_cache_hits / term_cache_misses, postings_rows (rows gathered
        # by cache misses and prefix queries) and varbyte_decodes
        self.counters: Counter = Counter()
        # per-field norms/lengths for extra indexed fields (docmeta columns
        # len_<f> / normb_<f> written by the tokenize stage) — the per-field
        # Norms analog (Lucene stores norms per indexed field)
        self._field_stats_cache: dict[str, tuple] = {}
        self._field_sums_override: dict[str, int] | None = None
        self.extra_fields: list[str] = sorted(
            c[len("len_"):] for c in self._meta_tables[0].column_names
            if c.startswith("len_")
        )

    # ---------- fields ----------

    def _norm_field(self, field: str | None) -> str | None:
        """None == the searcher's main content field (unprefixed terms).
        Aliases resolve first (FieldAliasMapper indirection)."""
        if field is not None:
            field = self.field_aliases.get(field, field)
        return None if field in (None, self.main_field) else field

    def _fkey(self, field: str | None) -> str:
        field = self._norm_field(field)
        return "" if field is None else field + FIELD_SEP

    def _analyzer_for(self, field: str | None):
        field = self._norm_field(field)
        name = self.search_analyzers.get(field)
        if name is None and field is not None:
            name = self.field_analyzers.get(field)
        return get_analyzer(name) if name else self.analyzer

    def _field_stats(self, field: str | None):
        """(norm_bytes, doc_lens, avgdl, norm_cache32) for a field."""
        field = self._norm_field(field)
        if field is None:
            return self.norm_bytes, self.doc_lens, self.avgdl, self._norm_cache32
        hit = self._field_stats_cache.get(field)
        if hit is None:
            if field not in self.extra_fields:
                raise ValueError(f"field {field!r} is not indexed "
                                 f"(have {self.extra_fields})")
            nb = np.zeros(self.max_doc + 1, dtype=np.uint8)
            dl = np.zeros(self.max_doc + 1, dtype=np.int32)
            total = 0
            for mt in self._meta_tables:
                ids = mt["doc_id"].to_numpy()
                lens = mt[f"len_{field}"].to_numpy(zero_copy_only=False)
                lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
                nbv = mt[f"normb_{field}"].to_numpy(zero_copy_only=False)
                nbv = np.nan_to_num(nbv.astype(np.float64)).astype(np.int64)
                nb[ids] = nbv.astype(np.uint8)
                dl[ids] = lens.astype(np.int32)
                total += int(lens.sum())
            if self._field_sums_override is not None:
                total = self._field_sums_override.get(field, total)
            avgdl = total / max(self.n_docs, 1)
            hit = (nb, dl, avgdl, self.bm25.norm_cache(avgdl))
            self._field_stats_cache[field] = hit
        return hit

    # ---------- term dictionary / postings ----------

    def global_df(self, term: str, field: str | None = None) -> int:
        g = self._global_stats(self._fkey(field) + term)
        if g is not None:
            return g[0]
        tp = self._get_term(term, field)
        return tp.df if tp else 0

    def _get_term(self, term: str, field: str | None = None) -> TermPostings | None:
        return self._get_term_key(self._fkey(field) + term)

    def _get_term_key(self, key: str) -> TermPostings | None:
        if key in self._term_cache:
            self.counters["term_cache_hits"] += 1
            return self._term_cache[key]
        self.counters["term_cache_misses"] += 1
        pieces = [p for seg in self.segments for p in seg.pieces(seg.rows_for(key))]
        self.counters["postings_rows"] += sum(r.size for _, r in pieces)
        tp = TermPostings(key, pieces, self.counters) if pieces else None
        if len(self._term_cache) >= self._cache_cap:
            evicted = self._term_cache.pop(next(iter(self._term_cache)))
            if evicted is not None:
                # release the evicted term's share of the position budget
                self._pos_cache_total -= evicted._pos_cache_elems
        self._term_cache[key] = tp
        return tp

    # ---------- scoring primitives ----------

    def _global_stats(self, key: str) -> tuple[int, int] | None:
        """(df, ttf) of a dictionary key from the installed collection-wide
        table, or None when no table is installed or the key is absent."""
        if self._global_terms is None:
            return None
        keys, df, ttf = self._global_terms
        i = int(np.searchsorted(keys, key))
        if i < keys.size and keys[i] == key:
            return int(df[i]), int(ttf[i])
        return None

    def _df(self, tp: TermPostings) -> int:
        """Effective df: the collection-wide value when this searcher only
        holds a partition of segments (the dfs_query_then_fetch scope —
        SURVEY.md §2.14), else the local one."""
        g = self._global_stats(tp.term)
        return tp.df if g is None else g[0]

    def _ttf(self, tp: TermPostings) -> int:
        """Effective total term frequency (TermStatistics.totalTermFreq):
        collection-wide when installed, else the local sum of tfs."""
        g = self._global_stats(tp.term)
        return int(tp.tfs.sum()) if g is None else g[1]

    def set_global_stats(self, n_docs: int, sum_doc_len: int,
                         term_stats=(),
                         field_sums: dict[str, int] | None = None) -> None:
        """Install collection-wide stats so a partition-holding searcher
        scores identically to a global one. `term_stats` is (keys, df, ttf):
        the sorted dictionary keys (fkey+term, so field-scoped clauses get
        the global df) with their df and total term frequency arrays; empty
        leaves per-term stats local. `field_sums` carries global per-field
        token totals for per-field avgdl parity."""
        self.n_docs = n_docs
        self.sum_doc_len = sum_doc_len
        self.avgdl = sum_doc_len / max(n_docs, 1)
        self._norm_cache32 = self.bm25.norm_cache(self.avgdl)
        self._global_terms = tuple(term_stats) or None
        self._field_sums_override = field_sums
        # per-field avgdl depends on (n_docs, field_sums): rebuild lazily
        self._field_stats_cache.clear()

    def local_field_sums(self) -> dict[str, int]:
        """This partition's per-field token totals."""
        out: dict[str, int] = {}
        for f in self.extra_fields:
            total = 0
            for mt in self._meta_tables:
                lens = mt[f"len_{f}"].to_numpy(zero_copy_only=False)
                total += int(np.nan_to_num(lens.astype(np.float64)).sum())
            out[f] = total
        return out

    def _term_scores(self, tp: TermPostings, boost: float = 1.0,
                     field: str | None = None) -> np.ndarray:
        norm_bytes, doc_lens, avgdl, cache32 = self._field_stats(field)
        if self.alt_sim is not None:
            # alternative similarity (DFR/IB/LM/boolean): float64 over exact
            # lengths with global stats — under DistributedSearcher each
            # actor installs collection-wide df AND ttf (_df/_ttf) and
            # sum_doc_len/avgdl via set_global_stats, so partitioned
            # scoring is identical to the single searcher (tested)
            sum_dl = (self.sum_doc_len if self._norm_field(field) is None
                      else int(round(avgdl * self.n_docs)))
            return self.alt_sim.score_tf(
                tp.tfs, doc_lens[tp.doc_ids], self._df(tp),
                self._ttf(tp), self.n_docs, sum_dl, avgdl, boost)
        w = self.bm25.weight(self._df(tp), self.n_docs, boost)
        if self.bm25.mode == "lucene":
            return self.bm25.score_tf(
                tp.tfs, norm_bytes[tp.doc_ids], None, avgdl, w, cache32
            )
        return self.bm25.score_tf(tp.tfs, None, doc_lens[tp.doc_ids], avgdl, w)

    def _accumulate(self, parts: list[tuple[np.ndarray, np.ndarray]]):
        """union-accumulate [(doc_ids, scores)] -> (unique_docs, summed f64)."""
        if not parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        ids = np.concatenate([p[0] for p in parts])
        sc = np.concatenate([p[1].astype(np.float64) for p in parts])
        uids, inv = np.unique(ids, return_inverse=True)
        out = np.zeros(uids.size, np.float64)
        np.add.at(out, inv, sc)
        return uids, out

    def _topk(self, doc_ids: np.ndarray, scores: np.ndarray, k: int):
        """ES tie-break: score desc, then doc_id asc; float32 comparison in
        lucene mode (final collected score is float)."""
        s = scores.astype(np.float32) if self.bm25.mode == "lucene" else scores
        if k <= 0:  # size=0 (count-only) is legal in the reference
            return np.empty(0, doc_ids.dtype), np.empty(0, np.float64)
        if doc_ids.size > k:
            thresh = np.partition(s, s.size - k)[s.size - k]  # kth largest
            keep = np.flatnonzero(s >= thresh)  # >= keeps boundary ties
            doc_ids, s = doc_ids[keep], s[keep]
        order = np.lexsort((doc_ids, -s.astype(np.float64)))[:k]
        return doc_ids[order], s[order]

    # ---------- query kinds ----------

    def validate(self, query: dict) -> tuple[bool, str]:
        """_validate/query analog (rest/action/RestValidateQueryAction,
        TransportValidateQueryAction): parse + rewrite the query without
        collecting hits; returns (valid, explanation) where the explanation
        is the normalized query tree for valid input and the parse error
        for invalid input. query_string text goes through the STRICT parser
        (QueryParseError on unbalanced parens / unterminated quotes /
        dangling operators, Lucene ParseException analog)."""
        import json as _json

        try:
            q = dict(query)
            if q.get("kind") == "query_string":
                q = parse_query_string(q["query"], q.get("default_field"),
                                       strict=True)
            self._eval(q)
            return True, _json.dumps(q, sort_keys=True, default=str)
        except Exception as ex:  # noqa: BLE001 — any engine rejection
            return False, f"{type(ex).__name__}: {ex}"

    def search(self, query: dict, use_wand: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """-> (top doc_ids, scores) per the query's k.

        With `use_wand` (BM25 only), a single term of global df above 4096
        takes the impact-ordered block collector, other term / match-or
        disjunctions the vectorized exhaustive scorer and an exact phrase
        the impact-bounded phrase collector; everything else evaluates
        exhaustively. All paths share the same scoring arithmetic and are
        rank-identical."""
        k = int(query.get("k", 10))
        if self.alt_sim is not None:
            use_wand = False  # block-max bounds are BM25-specific
        if use_wand and self._norm_field(query.get("field")) is None:
            kind = query["kind"]
            boost = float(query.get("boost", 1.0))
            terms = None
            if kind == "term":
                terms = [query["term"]]
            elif (kind == "match" and query.get("operator", "or") == "or"
                  and query.get("minimum_should_match") is None):
                # msm != None must route through _eval -> _terms_set: the
                # disjunction fast path would return docs matching any 1 term
                terms = self._analyzer_for(None)(query["text"])
                if not terms:
                    if query.get("zero_terms_query", "none") == "all":
                        # MatchQuery.ZeroTermsQuery.ALL — same rewrite the
                        # exhaustive path applies
                        return self.search({**query, "kind": "match_all"},
                                           use_wand=False)
                    return np.empty(0, np.int64), np.empty(0, np.float64)
            if terms is not None:
                # Collector routing, re-measured at 400k docs (round 3,
                # BASELINE.md): block-at-a-time WAND's ~0.1 ms/block Python
                # overhead is ~30x the vectorized per-posting cost, so it
                # only wins when >97% of blocks are skippable — which the
                # flat-impact synthetic corpus never reaches (every mix
                # measured 10-30x SLOWER than exhaustive: 'def' 290 ms vs
                # 9 ms; rare+hot 'def kaorva' 502 ms vs 47 ms). Routing:
                # single term -> impact-ordered block collector (early-
                # terminates when impacts are skewed, degenerates to the
                # exhaustive cost when they are flat); multi-term -> the
                # vectorized exhaustive disjunction.
                if len(dict.fromkeys(terms)) == 1 \
                        and self.global_df(terms[0]) > 4096:
                    from .wand import term_impact_topk

                    return term_impact_topk(self, terms[0], k, boost)
                ids, sc = self._disjunction(terms, boost)
                return self._topk(ids, sc, k)
            if kind == "match_phrase" and int(query.get("slop", 0)) == 0:
                # impact-bounded phrase collector: verify positions only for
                # candidates whose min-tf score bound can still enter the
                # top-k (the PhraseQuery impacts analog); rank-identical to
                # the exhaustive path (tested)
                return self._phrase_topk(query["text"], k, boost)
        ids, sc = self._eval(query)
        return self._topk(ids, sc, k)

    def _eval(self, q: dict) -> tuple[np.ndarray, np.ndarray]:
        kind = q["kind"]
        boost = float(q.get("boost", 1.0))
        field = self._norm_field(q.get("field"))
        if q.get("case_insensitive"):
            # 7.10 case_insensitive option on term-level queries
            # (TermQueryBuilder/PrefixQueryBuilder/WildcardQueryBuilder/
            # RegexpQueryBuilder caseInsensitive): the analyzed term
            # dictionary is already case-folded, so the query value folds
            # to meet it (AutomatonQueries.caseInsensitive* analog)
            q = {**q, **{k: q[k].lower() for k in
                         ("term", "prefix", "pattern", "value")
                         if isinstance(q.get(k), str)}}
        if kind == "term":
            tp = self._get_term(q["term"], field)
            if tp is None:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            return tp.doc_ids, self._term_scores(tp, boost, field).astype(np.float64)
        if kind == "match":
            terms = self._analyzer_for(field)(q["text"])
            op = q.get("operator", "or")
            if not terms:
                # MatchQuery.ZeroTermsQuery (index/search/MatchQuery.java:121):
                # when analysis strips every token (stopword/punctuation-only
                # input), 'none' (the default) matches nothing and 'all'
                # rewrites to match_all
                if q.get("zero_terms_query", "none") == "all":
                    ids = self._all_doc_ids()
                    return ids, np.full(ids.size, boost, np.float64)
                return np.empty(0, np.int64), np.empty(0, np.float64)
            msm = q.get("minimum_should_match")
            if msm is not None and op == "or":
                # match + minimum_should_match (MatchQueryBuilder param):
                # same machinery as terms_set over the analyzed terms
                return self._terms_set(terms, int(msm), boost, field)
            if op == "or":
                return self._disjunction(terms, boost, field)
            return self._conjunction(terms, boost, field)
        if kind == "match_phrase":
            slop = int(q.get("slop", 0))
            if slop > 0:
                return self._sloppy_phrase(q["text"], slop, boost, field)
            return self._phrase(q["text"], boost, field)
        if kind == "prefix":
            return self._prefix(q["prefix"], boost, field)
        if kind == "match_all":
            ids = self._all_doc_ids()
            return ids, np.full(ids.size, boost, np.float64)
        if kind == "match_none":
            return np.empty(0, np.int64), np.empty(0, np.float64)
        if kind == "type":
            # TypeQueryBuilder (index/query/TypeQueryBuilder.java,
            # deprecated in 7.x): a 7.x index has the single mapping type
            # `_doc` (MapperService.SINGLE_MAPPING_NAME) — the query is
            # match-all for that value and match-none for anything else.
            if str(q.get("value", "_doc")) == "_doc":
                ids = self._all_doc_ids()
                return ids, np.full(ids.size, boost, np.float64)
            return np.empty(0, np.int64), np.empty(0, np.float64)
        if kind == "bool":
            return self._bool(q, boost)
        if kind == "meta_term":
            # doc-values term filter on a docmeta column (the ES analog of a
            # `term` query on a keyword field; unscored, for filter/must use)
            return self._meta_term(q["field"], q["value"])
        if kind == "terms" and "terms" in q:
            # TermsQueryBuilder (non-lookup form): constant-score union of
            # the values — the filter-context semantics the reference gives
            # a terms query
            return self._constant_union(
                [str(t) for t in q["terms"]], boost, field)
        if kind == "ids":
            wanted = np.unique(np.asarray(list(q["values"]), dtype=np.int64))
            wanted = wanted[(wanted >= 0) & (wanted <= self.max_doc)]
            mask = self._has_doc[wanted]  # only docs this searcher holds
            return wanted[mask], np.full(int(mask.sum()), boost, np.float64)
        if kind == "fuzzy":
            # FuzzyQuery (index/query/FuzzyQueryBuilder) with CONSTANT_SCORE
            # rewrite: union of docs of terms within `fuzziness` edits
            terms = self._expand_fuzzy(
                q["term"], int(q.get("fuzziness", 1)), field,
                prefix_length=int(q.get("prefix_length", 0)),
                max_expansions=int(q.get("max_expansions", 50)),
                transpositions=bool(q.get("transpositions", False)))
            return self._constant_union(terms, boost, field)
        if kind == "wildcard":
            # WildcardQueryBuilder: * and ? over the term dictionary
            terms = self._expand_wildcard(q["pattern"], field)
            return self._constant_union(terms, boost, field)
        if kind == "regexp":
            terms = self._expand_regexp(q["pattern"], field)
            return self._constant_union(terms, boost, field)
        if kind == "terms_set":
            # TermsSetQueryBuilder: match docs containing at least
            # minimum_should_match of the terms; score = sum of matched
            return self._terms_set(q["terms"], int(q.get("minimum_should_match", 1)),
                                   boost, field)
        if kind == "dis_max":
            return self._dis_max(q["queries"], float(q.get("tie_breaker", 0.0)), boost)
        if kind == "constant_score":
            ids, _ = self._eval(q["filter"])
            return ids, np.full(ids.size, boost, np.float64)
        if kind == "boosting":
            pos_ids, pos_sc = self._eval(q["positive"])
            neg_ids, _ = self._eval(q["negative"])
            nb = float(q.get("negative_boost", 0.5))
            idx = np.searchsorted(neg_ids, pos_ids)
            if neg_ids.size:
                idx = np.minimum(idx, neg_ids.size - 1)
                in_neg = neg_ids[idx] == pos_ids
            else:
                in_neg = np.zeros(pos_ids.size, bool)
            sc = pos_sc * np.where(in_neg, nb, 1.0) * boost
            return pos_ids, sc
        if kind == "function_score" and "functions" in q:
            # full FunctionScoreQueryBuilder shape: a list of score
            # functions combined by score_mode, then folded into the
            # query score by boost_mode. Implements weight
            # (WeightBuilder), field_value_factor, random_score
            # (RandomScoreFunctionBuilder — a documented deterministic
            # doc_id+seed hash mix in [0,1)) and the three decay shapes
            # (DecayFunctionBuilder: gauss / exp / linear with
            # origin/scale/offset/decay exactly per the published
            # formulas).
            ids, sc = self._eval(q["query"])
            parts = []
            for f in q["functions"]:
                ft = f["type"]
                if ft == "weight":
                    v = np.full(ids.size, float(f["weight"]))
                elif ft == "field_value_factor":
                    v = (self._meta_values(f["field"], ids)
                         .astype(np.float64) * float(f.get("factor", 1.0)))
                    mod = f.get("modifier", "none")
                    if mod == "log1p":
                        v = np.log1p(v)
                    elif mod == "sqrt":
                        v = np.sqrt(v)
                elif ft == "random_score":
                    seed = np.uint64(int(f.get("seed", 0)))
                    m32 = np.uint64(0xFFFFFFFF)
                    h = (ids.astype(np.uint64) * np.uint64(2654435761)
                         + seed) & m32
                    h = h ^ (h >> np.uint64(16))
                    h = (h * np.uint64(2246822519)) & m32
                    h = h ^ (h >> np.uint64(13))
                    v = h.astype(np.float64) / float(2 ** 32)
                elif ft in ("gauss", "exp", "linear"):
                    vals = (self._meta_values(f["field"], ids)
                            .astype(np.float64))
                    origin = float(f["origin"])
                    scale = float(f["scale"])
                    offset = float(f.get("offset", 0.0))
                    d = float(f.get("decay", 0.5))
                    dist = np.maximum(0.0, np.abs(vals - origin) - offset)
                    if ft == "gauss":
                        sigma2 = -scale * scale / (2.0 * np.log(d))
                        v = np.exp(-dist * dist / (2.0 * sigma2))
                    elif ft == "exp":
                        v = np.exp(np.log(d) / scale * dist)
                    else:
                        s2 = scale / (1.0 - d)
                        v = np.maximum(0.0, (s2 - dist) / s2)
                else:
                    raise ValueError(f"unknown score function {ft!r}")
                parts.append(v)
            score_mode = q.get("score_mode", "multiply")
            comb = parts[0]
            for v in parts[1:]:
                comb = comb + v if score_mode == "sum" else comb * v
            boost_mode = q.get("boost_mode", "multiply")
            if boost_mode == "replace":
                out = comb
            elif boost_mode == "sum":
                out = sc + comb
            else:
                out = sc * comb
            return ids, out * boost
        if kind == "function_score":
            # field_value_factor flavor (FunctionScoreQueryBuilder):
            # score = inner_score * (factor * field_value) with modifier
            ids, sc = self._eval(q["query"])
            field = q.get("field", "n_chars")
            factor = float(q.get("factor", 1.0))
            modifier = q.get("modifier", "none")
            vals = self._meta_values(field, ids).astype(np.float64) * factor
            if modifier == "log1p":
                vals = np.log1p(vals)
            elif modifier == "sqrt":
                vals = np.sqrt(vals)
            return ids, sc * vals * boost
        if kind == "script":
            # ScriptQueryBuilder (filter context): keep docs where the numeric
            # expression over docmeta fields is truthy; constant score
            import re as _re

            from elasticsearch_ray.scripting import resolve_script, safe_eval_expr

            src = resolve_script(q["script"])
            ids = self._all_doc_ids()
            env: dict = {"log": np.log, "log1p": np.log1p, "sqrt": np.sqrt,
                         "exp": np.exp, "abs": np.abs, "ln": np.log,
                         "where": np.where, "min": np.minimum,
                         "max": np.maximum}
            called = set(_re.findall(r"([a-zA-Z_][a-zA-Z0-9_]*)\s*\(", src))
            for name in set(_re.findall(r"[a-zA-Z_][a-zA-Z0-9_]*", src)):
                if name in self._meta_tables[0].column_names and \
                        (name not in env or name not in called):
                    env[name] = self._meta_values(name, ids).astype(np.float64)
            mask = np.asarray(_eval_script_src(src, env), bool)
            ids = ids[mask]
            return ids, np.full(ids.size, boost, np.float64)
        if kind == "script_score":
            # ScriptScoreQueryBuilder: replace the inner query's score with a
            # numeric expression over _score and docmeta fields, evaluated by
            # the whitelisted-AST sandbox (scripting.py, the Painless analog)
            ids, sc = self._eval(q["query"])
            if ids.size == 0:
                return ids, sc
            from elasticsearch_ray.scripting import resolve_script, safe_eval_expr

            src = resolve_script(q["script"])
            env = {"_score": sc, "log": np.log, "log1p": np.log1p,
                   "sqrt": np.sqrt, "exp": np.exp, "abs": np.abs,
                   "minimum": np.minimum, "maximum": np.maximum,
                   "ln": np.log, "where": np.where,
                   "min": np.minimum, "max": np.maximum}
            import re as _re

            called = set(_re.findall(r"([a-zA-Z_][a-zA-Z0-9_]*)\s*\(", src))
            for name in set(_re.findall(r"[a-zA-Z_][a-zA-Z0-9_]*", src)):
                if name in self._meta_tables[0].column_names and \
                        (name not in env or name not in called):
                    env[name] = self._meta_values(name, ids).astype(np.float64)
            out = _eval_script_src(src, env)
            return ids, np.asarray(out, np.float64) * boost
        if kind == "distance_feature":
            # DistanceFeatureQueryBuilder (numeric/date form):
            # score = boost * pivot / (pivot + |value - origin|)
            ids = self._exists_ids(q["field"])
            vals = self._meta_values(q["field"], ids).astype(np.float64)
            pivot = float(q["pivot"])
            origin = float(q["origin"])
            sc = boost * pivot / (pivot + np.abs(vals - origin))
            return ids, sc
        if kind == "rank_feature":
            # RankFeatureQueryBuilder, saturation (default) / log / sigmoid
            ids = self._exists_ids(q["field"])
            v = self._meta_values(q["field"], ids).astype(np.float64)
            fn = q.get("function", "saturation")
            if fn == "saturation":
                pivot = float(q["pivot"])
                if q.get("positive_score_impact", True):
                    sc = boost * v / (v + pivot)
                else:
                    # RankFeatureFieldMapper positive_score_impact=false:
                    # lower feature values score HIGHER (the query
                    # saturates on the reciprocal)
                    sc = boost * pivot / (v + pivot)
            elif fn == "log":
                sc = boost * np.log(float(q.get("scaling_factor", 1.0)) + v)
            elif fn == "sigmoid":
                pivot, ex = float(q["pivot"]), float(q["exponent"])
                sc = boost * (v ** ex) / (v ** ex + pivot ** ex)
            else:
                raise ValueError(f"unknown rank_feature function {fn!r}")
            return ids, sc
        if kind == "more_like_this":
            return self._more_like_this(
                q["like"], int(q.get("max_query_terms", 5)),
                q.get("exclude_doc"), boost,
                unlike=q.get("unlike"),
                min_term_freq=int(q.get("min_term_freq", 1)),
            )
        if kind == "span_near":
            return self._span_near(
                q["terms"], int(q.get("slop", 0)), bool(q.get("in_order", True)),
                boost, field
            )
        if kind in ("span_or", "span_not", "span_first", "span_within",
                    "span_containing", "span_term", "span_multi",
                    "span_field_masking"):
            return self._span_docs(q, boost, field)
        if kind == "match_phrase_prefix":
            return self._phrase_prefix(q["text"], int(q.get("max_expansions", 50)),
                                       boost, field)
        if kind == "match_bool_prefix":
            # MatchBoolPrefixQueryBuilder: analyzed terms as scored shoulds,
            # the LAST term as a prefix clause (constant-score union) —
            # rest-api-spec/test/search/310_match_bool_prefix.yml semantics
            terms_bp = self._analyzer_for(field)(q["text"])
            if not terms_bp:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            parts_bp = []
            if len(terms_bp) > 1:
                parts_bp.append(self._disjunction(terms_bp[:-1], 1.0, field))
            parts_bp.append(self._prefix(terms_bp[-1], 1.0, field))
            parts_bp = [p for p in parts_bp if p[0].size]
            if not parts_bp:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            ids, sc = self._accumulate(parts_bp)
            return ids, sc * boost
        if kind == "simple_query_string":
            return self._eval(parse_simple_query_string(
                q["query"], flags=q.get("flags", "ALL"),
                default_operator=q.get("default_operator", "or")))
        if kind == "query_string":
            # full grammar (QueryStringQueryBuilder.java): fields, AND/OR/NOT,
            # +/-, grouping, phrases, per-clause boosts, wildcard/fuzzy terms
            tree = parse_query_string(q["query"], q.get("default_field"))
            if boost != 1.0:
                tree = {**tree, "boost": boost * float(tree.get("boost", 1.0))}
            return self._eval(tree)
        if kind == "wrapper":
            # WrapperQueryBuilder: base64-encoded JSON query, re-parsed
            import base64
            import json as _json

            inner = _json.loads(base64.b64decode(q["query"]))
            if boost != 1.0:
                inner = {**inner, "boost": boost * float(inner.get("boost", 1.0))}
            return self._eval(inner)
        if kind == "exists":
            # ExistsQueryBuilder: docs where the field has a non-null value
            # (the _field_names presence analog, over docmeta / field lengths)
            ids = self._exists_ids(q["field"])
            return ids, np.full(ids.size, boost, np.float64)
        if kind == "multi_match":
            # MultiMatchQuery: best_fields = dis_max over per-field matches
            # (tie_breaker), most_fields = sum of per-field matches,
            # cross_fields = term-centric (per-TERM best field, summed)
            field_boosts = []
            for f in q["fields"]:
                fb = 1.0
                if "^" in f:
                    f, fb_s = f.split("^", 1)
                    fb = float(fb_s)
                field_boosts.append((f, fb))
            mtype = q.get("type", "best_fields")
            if mtype in ("phrase", "phrase_prefix", "bool_prefix"):
                # MultiMatchQueryBuilder.Type PHRASE/PHRASE_PREFIX/BOOL_PREFIX
                # (index/query/MultiMatchQueryBuilder.java): run the matching
                # single-field query per field and combine best-fields style
                # (dis_max with tie_breaker)
                kind_map = {"phrase": "match_phrase",
                            "phrase_prefix": "match_phrase_prefix",
                            "bool_prefix": "match_bool_prefix"}
                subs_p = []
                for f, fb in field_boosts:
                    sub = {"kind": kind_map[mtype], "text": q["text"],
                           "field": f, "boost": fb}
                    if mtype == "phrase" and q.get("slop") is not None:
                        sub["slop"] = q["slop"]
                    subs_p.append(sub)
                return self._dis_max(subs_p, float(q.get("tie_breaker", 0.0)),
                                     boost)
            if mtype == "cross_fields":
                terms = self._analyzer_for(None)(q["text"])
                parts = []
                for t in dict.fromkeys(terms):
                    subs_t = [{"kind": "term", "term": t, "field": f, "boost": fb}
                              for f, fb in field_boosts]
                    parts.append(self._dis_max(subs_t, 0.0, 1.0))
                ids, sc = self._accumulate([p for p in parts if p[0].size])
                return ids, sc * boost
            subs = []
            for f, fb in field_boosts:
                sub = {"kind": "match", "text": q["text"], "field": f,
                       "boost": fb, "operator": q.get("operator", "or")}
                if q.get("minimum_should_match") is not None:
                    sub["minimum_should_match"] = q["minimum_should_match"]
                subs.append(sub)
            if mtype == "best_fields":
                return self._dis_max(subs, float(q.get("tie_breaker", 0.0)), boost)
            if mtype == "most_fields":
                parts = [self._eval(sq) for sq in subs]
                ids, sc = self._accumulate([p for p in parts if p[0].size])
                return ids, sc * boost
            raise ValueError(f"unknown multi_match type {mtype!r}")
        if kind == "common":
            # CommonTermsQueryBuilder: split analyzed terms by document
            # frequency at cutoff_frequency * N; docs must match >= 1
            # low-frequency term, high-frequency terms only contribute score
            # to those docs (the stopword-free scoring trick)
            terms = self._analyzer_for(field)(q["text"])
            if not terms:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            cutoff = float(q.get("cutoff_frequency", 0.01))
            low, high = [], []
            for t in dict.fromkeys(terms):
                (high if self.global_df(t, field) > cutoff * self.n_docs
                 else low).append(t)
            if not low:
                return self._disjunction(high, boost, field)
            ids, sc = self._disjunction(low, boost, field)
            for t in high:
                tp = self._get_term(t, field)
                if tp is None:
                    continue
                hsc = self._term_scores(tp, boost, field)
                idx = np.searchsorted(tp.doc_ids, ids)
                if tp.doc_ids.size:
                    idx = np.minimum(idx, tp.doc_ids.size - 1)
                    hit = tp.doc_ids[idx] == ids
                    sc[hit] += hsc[idx[hit]].astype(np.float64)
            return ids, sc
        if kind == "intervals":
            # IntervalsQueryBuilder subset: all_of(ordered, max_gaps) maps to
            # span_near (gap semantics identical for ordered runs); any_of is
            # a constant-score union of sub-interval matches; prefix and
            # wildcard rules expand against the sorted dictionary
            rule = q["rule"]

            def _has_filter(node):
                if isinstance(node, dict):
                    return "filter" in node or \
                        any(_has_filter(v) for v in node.values())
                if isinstance(node, list):
                    return any(_has_filter(v) for v in node)
                return False

            if _has_filter(rule):
                # filter rules (at any nesting depth) need interval
                # geometry -> spans path
                ids, spans = self._intervals_spans(rule, field)
                keep = np.fromiter(
                    (sp[0].size > 0 for sp in spans), bool, ids.size) \
                    if ids.size else np.empty(0, bool)
                ids = ids[keep]
                return ids, np.full(ids.size, boost, np.float64)
            if "prefix" in rule:
                return self._prefix(rule["prefix"]["prefix"], boost, field)
            if "wildcard" in rule:
                terms_w = self._expand_wildcard(rule["wildcard"]["pattern"], field)
                return self._constant_union(terms_w, boost, field)
            if "fuzzy" in rule:
                # IntervalsSourceProvider.Fuzzy (added ES 7.6): expand the
                # term against the dictionary within the edit budget, then
                # a constant-score union of the expansions' intervals
                spec = rule["fuzzy"]
                terms_f = self._expand_fuzzy(
                    spec["term"], int(spec.get("fuzziness", 1)), field,
                    prefix_length=int(spec.get("prefix_length", 0)))
                return self._constant_union(terms_f, boost, field)
            if "all_of" in rule:
                spec = rule["all_of"]
                return self._span_near(
                    spec["terms"], int(spec.get("max_gaps", 0)),
                    bool(spec.get("ordered", True)), boost, field,
                )
            if "any_of" in rule:
                parts = [
                    self._span_near(t if isinstance(t, list) else [t],
                                    0, True, boost, field)
                    for t in rule["any_of"]["terms"]
                ]
                ids = (np.unique(np.concatenate([p[0] for p in parts]))
                       if parts else np.empty(0, np.int64))
                return ids, np.full(ids.size, boost, np.float64)
            if "match" in rule:
                terms = self._analyzer_for(field)(rule["match"]["query"])
                return self._span_near(
                    terms, int(rule["match"].get("max_gaps", 0)),
                    bool(rule["match"].get("ordered", True)), boost, field,
                )
            raise ValueError(f"unknown intervals rule {rule!r}")
        raise ValueError(f"unknown query kind {kind!r}")

    def _span_near(self, terms: list, slop: int, in_order: bool, boost: float,
                   field: str | None = None):
        """span_near (SpanNearQueryBuilder): terms within `slop` intervening
        positions, optionally in order. Constant-scored here (span scoring in
        Lucene is sloppy-freq-based; the doc-set semantics are what the
        compound queries need).

        Clause entries may be `{"gap": N}` (SpanGapQueryBuilder, only legal
        with in_order=true exactly like the reference's validation): a gap
        forces N extra positions between its neighboring terms. Leading /
        trailing gaps widen the emitted span but cannot change doc-set
        membership, so they are absorbed here."""
        gaps: list[int] = []
        pure: list[str] = []
        pending = 0
        for t in terms:
            if isinstance(t, dict) and "gap" in t:
                pending += int(t["gap"])
                continue
            gaps.append(pending)
            pending = 0
            pure.append(t)
        if (pending or any(gaps)) and not in_order:
            raise ValueError("span_gap requires in_order=true")
        gaps = gaps[1:] if gaps else []  # leading gap cancels for doc-sets
        gaps += [0] * (max(len(pure) - 1 - len(gaps), 0))
        terms = pure
        tps = []
        for t in terms:
            tp = self._get_term(t, field)
            if tp is None:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            tps.append(tp)
        cand = tps[0].doc_ids
        for tp in tps[1:]:
            idx = np.searchsorted(tp.doc_ids, cand)
            idx = np.minimum(idx, tp.doc_ids.size - 1)
            cand = cand[tp.doc_ids[idx] == cand]
        if cand.size == 0:
            return cand, np.empty(0, np.float64)
        pos_maps = [self._positions_for(tp, cand) for tp in tps]
        window = slop + len(terms) - 1 + sum(gaps)  # max start-to-start span
        n_t = len(terms)
        keep = np.zeros(cand.size, dtype=bool)
        for ci in range(cand.size):
            if in_order:
                # vectorized greedy chain over ALL start positions at once:
                # for each p0 of term0, the minimal in-order completion is
                # next-position-after via searchsorted per subsequent term
                # (minimal end for each start => no match is missed)
                cur = pos_maps[0][ci]
                ok = np.ones(cur.size, dtype=bool)
                for ti in range(1, n_t):
                    nxt_pos = pos_maps[ti][ci]
                    if nxt_pos.size == 0:
                        ok[:] = False
                        break
                    # gap between term ti-1 and ti forces that many extra
                    # intervening positions: next > cur + gap
                    j = np.searchsorted(nxt_pos, cur + gaps[ti - 1],
                                        side="right")
                    ok &= j < nxt_pos.size
                    cur = nxt_pos[np.minimum(j, nxt_pos.size - 1)]
                if n_t == 1:
                    keep[ci] = cur.size > 0
                else:
                    span = cur - pos_maps[0][ci]  # end - start (positions)
                    keep[ci] = bool(np.any(ok & (span <= window)))
            else:
                # unordered: per-term prefix counts over the merged sorted
                # position list; window [m[i], m[i]+window] covers the query
                # iff every DISTINCT term's count inside it reaches that
                # term's multiplicity (a repeated term needs as many
                # distinct positions as it repeats — Lucene spans never let
                # one position satisfy two clauses)
                uniq_i = {}
                for t in terms:
                    uniq_i.setdefault(t, len(uniq_i))
                n_u = len(uniq_i)
                need = np.zeros(n_u, dtype=np.int32)
                for t in terms:
                    need[uniq_i[t]] += 1
                parts = []
                for t, ui in uniq_i.items():
                    ti = terms.index(t)
                    parts.append(pos_maps[ti][ci])
                lens = [p.size for p in parts]
                m = np.concatenate(parts)
                labels = np.repeat(np.arange(n_u), lens)
                order = np.argsort(m, kind="stable")
                m, labels = m[order], labels[order]
                ends = np.searchsorted(m, m + window, side="right")
                # prefix[l, i] = count of label l in m[:i]
                prefix = np.zeros((n_u, m.size + 1), dtype=np.int32)
                for ui in range(n_u):
                    np.cumsum((labels == ui).astype(np.int32),
                              out=prefix[ui, 1:])
                idx = np.arange(m.size)
                covered = np.ones(m.size, dtype=bool)
                for ui in range(n_u):
                    covered &= prefix[ui, ends] - prefix[ui, idx] >= need[ui]
                keep[ci] = bool(covered.any())
        ids = cand[keep]
        return ids, np.full(ids.size, boost, np.float64)

    # ---- span algebra (SpanOr/Not/First/Within/Containing QueryBuilders) ----
    #
    # A span query evaluates to per-doc interval lists [(start, end)), sorted
    # by start. Doc-set semantics: a doc matches when >= 1 span survives.
    # span_near inside the algebra is the 2-clause ordered/unordered pair
    # enumeration (ALL satisfying pairs, so within/containing are
    # well-defined); the n-term top-level span_near doc query keeps its own
    # vectorized matcher (_span_near).

    def _span_eval(self, q: dict, field: str | None = None):
        """-> (cand_ids, spans) with spans[i] = (starts, ends) arrays."""
        kind = q["kind"]
        if kind == "span_term":
            tp = self._get_term(q["term"], field)
            if tp is None:
                return np.empty(0, np.int64), []
            cand = tp.doc_ids
            pos = self._positions_for(tp, cand)
            return cand, [(p, p + 1) for p in pos]
        if kind == "span_near":
            terms = q["terms"]
            if len(terms) != 2:
                # n-clause form: span_near slop == intervals max_gaps for
                # term clauses ((max-min+1)-k <= slop), so reuse the
                # minimal-interval evaluator; the 2-clause fast path below
                # keeps its exhaustive pair enumeration unchanged
                return self._terms_intervals(
                    terms, int(q.get("slop", 0)),
                    bool(q.get("in_order", True)), field)
            slop = int(q.get("slop", 0))
            in_order = bool(q.get("in_order", True))
            t1, t2 = (self._get_term(t, field) for t in terms)
            if t1 is None or t2 is None:
                return np.empty(0, np.int64), []
            cand = np.intersect1d(t1.doc_ids, t2.doc_ids, assume_unique=True)
            p1 = self._positions_for(t1, cand)
            p2 = self._positions_for(t2, cand)
            spans = []
            w = slop + 1
            for a, b in zip(p1, p2):
                # all pairs within the slop budget (ordered: a before b)
                d = b[None, :] - a[:, None]
                ok = (d >= 1) & (d <= w) if in_order else \
                    (np.abs(d) <= w) & (d != 0)
                ii, jj = np.nonzero(ok)
                s = np.minimum(a[ii], b[jj])
                e = np.maximum(a[ii], b[jj]) + 1
                order = np.argsort(s, kind="stable")
                spans.append((s[order], e[order]))
            return cand, spans
        if kind == "span_field_masking":
            # SpanFieldMaskingQueryBuilder: evaluate the wrapped span against
            # ITS field but report it under the masked name, so it composes
            # with spans of the outer field (positions are comparable here
            # because the algebra is field-agnostic after extraction)
            return self._span_eval(q["query"], self._norm_field(q.get("field")))
        if kind == "span_multi":
            # SpanMultiTermQueryBuilder: expand the wrapped multi-term query
            # (wildcard/prefix/fuzzy/regexp) against the dictionary, then
            # behave as a span_or of span_terms
            m = q["match"]
            mk = m["kind"]
            if mk == "prefix":
                terms = [str(t) for t in self._terms_with_prefix(m["prefix"], field)]
            elif mk == "wildcard":
                terms = self._expand_wildcard(m["pattern"], field)
            elif mk == "regexp":
                terms = self._expand_regexp(m["pattern"], field)
            elif mk == "fuzzy":
                terms = self._expand_fuzzy(m["term"], int(m.get("fuzziness", 1)), field)
            else:
                raise ValueError(f"span_multi cannot wrap {mk!r}")
            return self._span_eval(
                {"kind": "span_or",
                 "clauses": [{"kind": "span_term", "term": t} for t in terms]},
                field)
        if kind == "span_or":
            parts = [self._span_eval(c, field) for c in q["clauses"]]
            parts = [p for p in parts if p[0].size]
            if not parts:
                return np.empty(0, np.int64), []
            cand = np.unique(np.concatenate([p[0] for p in parts]))
            spans = []
            for di, doc in enumerate(cand):
                ss, es = [], []
                for ids, sp in parts:
                    k = np.searchsorted(ids, doc)
                    if k < ids.size and ids[k] == doc:
                        ss.append(sp[k][0])
                        es.append(sp[k][1])
                s = np.concatenate(ss)
                e = np.concatenate(es)
                order = np.argsort(s, kind="stable")
                spans.append((s[order], e[order]))
            return cand, spans
        if kind == "span_not":
            inc_ids, inc_sp = self._span_eval(q["include"], field)
            exc_ids, exc_sp = self._span_eval(q["exclude"], field)
            spans = []
            for di, doc in enumerate(inc_ids):
                s, e = inc_sp[di]
                k = np.searchsorted(exc_ids, doc)
                if k < exc_ids.size and exc_ids[k] == doc and exc_sp[k][0].size:
                    xs, xe = exc_sp[k]
                    # overlap: s < xe and xs < e for any exclude span
                    hit = (s[:, None] < xe[None, :]) & (xs[None, :] < e[:, None])
                    keep = ~hit.any(axis=1)
                    s, e = s[keep], e[keep]
                spans.append((s, e))
            return inc_ids, spans
        if kind == "span_first":
            ids, sp = self._span_eval(q["match"], field)
            end = int(q["end"])
            return ids, [(s[e <= end], e[e <= end]) for s, e in sp]
        if kind in ("span_within", "span_containing"):
            little_q = q["little"]
            big_q = q["big"]
            l_ids, l_sp = self._span_eval(little_q, field)
            b_ids, b_sp = self._span_eval(big_q, field)
            cand = np.intersect1d(l_ids, b_ids, assume_unique=True)
            spans = []
            for doc in cand:
                li = np.searchsorted(l_ids, doc)
                bi = np.searchsorted(b_ids, doc)
                ls, le = l_sp[li]
                bs, be = b_sp[bi]
                inside = (bs[None, :] <= ls[:, None]) & (le[:, None] <= be[None, :])
                if kind == "span_within":  # little spans inside some big span
                    keep = inside.any(axis=1)
                    spans.append((ls[keep], le[keep]))
                else:  # span_containing: big spans containing some little span
                    keep = inside.any(axis=0)
                    spans.append((bs[keep], be[keep]))
            return cand, spans
        raise ValueError(f"unknown span query kind {kind!r}")

    def _span_docs(self, q: dict, boost: float, field: str | None = None):
        ids, spans = self._span_eval(q, field)
        keep = np.fromiter((sp[0].size > 0 for sp in spans), bool, ids.size) \
            if ids.size else np.empty(0, bool)
        ids = ids[keep]
        return ids, np.full(ids.size, boost, np.float64)

    # -- intervals with explicit interval geometry ---------------------------
    # IntervalsSourceProvider evaluated to explicit minimal-interval sets so
    # the `filter` rule (IntervalsSourceProvider.IntervalFilter — containing /
    # not_containing / contained_by / not_contained_by / overlapping /
    # not_overlapping / before / after) can compare source intervals against
    # the filter source's intervals. Lucene intervals keep only MINIMAL
    # intervals (no interval that contains another match).

    @staticmethod
    def _minimal_intervals(s: np.ndarray, e: np.ndarray):
        """Prune to minimal intervals: drop any interval that strictly
        contains another. Inputs need not be sorted."""
        if s.size <= 1:
            return s, e
        order = np.lexsort((e, s))
        s, e = s[order], e[order]
        # equal starts: only the smallest end can be minimal
        first = np.r_[True, s[1:] != s[:-1]]
        s, e = s[first], e[first]
        # starts strictly increasing: i is non-minimal iff some j>i has
        # e[j] <= e[i] (then [s_j,e_j) nests inside [s_i,e_i))
        suff = np.minimum.accumulate(e[::-1])[::-1]
        keep = np.r_[suff[1:] > e[:-1], True] if e.size > 1 \
            else np.ones(1, bool)
        return s[keep], e[keep]

    def _terms_intervals(self, terms: list[str], max_gaps: int, ordered: bool,
                         field: str | None):
        """Minimal intervals of a term sequence (Intervals.ordered /
        Intervals.unordered + maxgaps). -> (cand_ids, spans)."""
        tps = [self._get_term(t, field) for t in terms]
        if any(tp is None for tp in tps) or not tps:
            return np.empty(0, np.int64), []
        cand = tps[0].doc_ids
        for tp in tps[1:]:
            cand = np.intersect1d(cand, tp.doc_ids, assume_unique=True)
        plists = [self._positions_for(tp, cand) for tp in tps]
        k = len(terms)
        spans = []
        for di in range(cand.size):
            lists = [pl[di] for pl in plists]
            if k == 1:
                p = lists[0]
                spans.append((p, p + 1))
                continue
            if ordered:
                # vectorized greedy chain: for every start of term 1, the
                # earliest completion of terms 2..k strictly after it
                cur = lists[0]
                ok = np.ones(cur.size, bool)
                for pl in lists[1:]:
                    j = np.searchsorted(pl, cur + 1)
                    ok &= j < pl.size
                    cur = pl[np.minimum(j, pl.size - 1)]
                s, e = lists[0][ok], cur[ok] + 1
            else:
                # two-pointer minimal covering windows over merged positions
                # of the DISTINCT terms; a repeated term must be covered by
                # as many distinct positions as its multiplicity
                uniq: dict[str, int] = {}
                for t in terms:
                    uniq.setdefault(t, len(uniq))
                n_u = len(uniq)
                need = np.zeros(n_u, np.int64)
                for t in terms:
                    need[uniq[t]] += 1
                ulists = [lists[terms.index(t)] for t in uniq]
                pos = np.concatenate(ulists)
                lab = np.concatenate(
                    [np.full(l.size, i) for i, l in enumerate(ulists)])
                o = np.argsort(pos, kind="stable")
                pos, lab = pos[o], lab[o]
                count = np.zeros(n_u, np.int64)
                have = 0
                left = 0
                ss, es = [], []
                for right in range(pos.size):
                    count[lab[right]] += 1
                    if count[lab[right]] == need[lab[right]]:
                        have += 1
                    while have == n_u:
                        if count[lab[left]] > need[lab[left]]:
                            count[lab[left]] -= 1
                            left += 1
                        else:
                            ss.append(pos[left])
                            es.append(pos[right] + 1)
                            count[lab[left]] -= 1
                            have -= 1
                            left += 1
                s = np.asarray(ss, np.int64)
                e = np.asarray(es, np.int64)
            s, e = self._minimal_intervals(s, e)
            width_ok = (e - s) - k <= max_gaps
            spans.append((s[width_ok], e[width_ok]))
        return cand, spans

    def _intervals_spans(self, rule: dict, field: str | None = None):
        """Evaluate an intervals source to (ids, spans), applying its
        optional `filter`."""
        rkind = next(iter(rule))
        spec = rule[rkind]
        if rkind == "match":
            terms = self._analyzer_for(field)(spec["query"])
            ids, spans = self._terms_intervals(
                terms, int(spec.get("max_gaps", 0)),
                bool(spec.get("ordered", True)), field)
        elif rkind == "all_of":
            ids, spans = self._terms_intervals(
                spec["terms"], int(spec.get("max_gaps", 0)),
                bool(spec.get("ordered", True)), field)
        elif rkind == "any_of":
            parts = [self._intervals_spans(
                t if isinstance(t, dict) else {"match": {"query": t}}, field)
                for t in spec["terms"]]
            ids, spans = self._union_spans(parts)
        elif rkind in ("prefix", "wildcard", "fuzzy"):
            if rkind == "prefix":
                exp = [str(t) for t in self._terms_with_prefix(
                    spec["prefix"], field)]
            elif rkind == "wildcard":
                exp = self._expand_wildcard(spec["pattern"], field)
            else:
                exp = self._expand_fuzzy(
                    spec["term"], int(spec.get("fuzziness", 1)), field,
                    prefix_length=int(spec.get("prefix_length", 0)))
            parts = []
            for t in exp:
                tp = self._get_term(t, field)
                if tp is None:
                    continue
                pos = self._positions_for(tp, tp.doc_ids)
                parts.append((tp.doc_ids, [(p, p + 1) for p in pos]))
            ids, spans = self._union_spans(parts)
        else:
            raise ValueError(f"unknown intervals rule {rkind!r}")
        flt = spec.get("filter") if isinstance(spec, dict) else None
        if flt:
            ids, spans = self._filter_intervals(ids, spans, flt, field)
        return ids, spans

    def _union_spans(self, parts):
        """Union interval sets from several sources, minimal-pruned."""
        parts = [p for p in parts if p[0].size]
        if not parts:
            return np.empty(0, np.int64), []
        ids = np.unique(np.concatenate([p[0] for p in parts]))
        spans = []
        for doc in ids:
            ss, es = [], []
            for pids, psp in parts:
                j = np.searchsorted(pids, doc)
                if j < pids.size and pids[j] == doc:
                    ss.append(psp[j][0])
                    es.append(psp[j][1])
            s, e = self._minimal_intervals(
                np.concatenate(ss), np.concatenate(es))
            spans.append((s, e))
        return ids, spans

    def _filter_intervals(self, ids, spans, flt: dict, field):
        """IntervalsSourceProvider.IntervalFilter: keep source intervals by
        their relation to the filter source's intervals in the same doc.
        Ends are exclusive: containment is fs>=s & fe<=e, overlap s<fe &
        fs<e, before e<=fs (source ends before some filter interval starts),
        after s>=fe."""
        (fname, fsrc), = flt.items()
        f_ids, f_spans = self._intervals_spans(fsrc, field)
        negative = fname.startswith("not_")
        base = fname[4:] if negative else fname
        out = []
        for di, doc in enumerate(ids):
            s, e = spans[di]
            j = np.searchsorted(f_ids, doc)
            if j < f_ids.size and f_ids[j] == doc and f_spans[j][0].size:
                fs, fe = f_spans[j]
            else:
                fs = fe = np.empty(0, np.int64)
            if not fs.size:
                hit = np.zeros(s.size, bool)
            elif base == "containing":
                hit = ((s[:, None] <= fs[None, :])
                       & (fe[None, :] <= e[:, None])).any(axis=1)
            elif base == "contained_by":
                hit = ((fs[None, :] <= s[:, None])
                       & (e[:, None] <= fe[None, :])).any(axis=1)
            elif base == "overlapping":
                hit = ((s[:, None] < fe[None, :])
                       & (fs[None, :] < e[:, None])).any(axis=1)
            elif base == "before":
                hit = (e[:, None] <= fs[None, :]).any(axis=1)
            elif base == "after":
                hit = (s[:, None] >= fe[None, :]).any(axis=1)
            else:
                raise ValueError(f"unknown intervals filter {fname!r}")
            keep = ~hit if negative else hit
            out.append((s[keep], e[keep]))
        return ids, out

    def _phrase_prefix(self, text: str, max_expansions: int, boost: float,
                       field: str | None = None):
        """match_phrase_prefix (MatchPhrasePrefixQueryBuilder): phrase whose
        last term is a prefix, expanded against the sorted term dictionary."""
        terms = self._analyzer_for(field)(text)
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        prefix = terms[-1]
        expansions = list(self._terms_with_prefix(prefix, field)[:max_expansions])
        if not expansions:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        parts = []
        for exp in expansions:
            full = terms[:-1] + [exp]
            if len(full) > 1:
                ids, _ = self._phrase(" ".join(full), 1.0, field)
            else:
                tp = self._get_term(exp, field)
                ids = tp.doc_ids if tp is not None else np.empty(0, np.int64)
            parts.append(ids)
        ids = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        return ids, np.full(ids.size, boost, np.float64)

    # ---- expanded-term and compound helpers ----
    #
    # Multi-term queries (wildcard/regexp/fuzzy/prefix-expansion) never scan
    # the whole vocabulary: each segment keeps a SORTED term array, so the
    # candidate set is a searchsorted prefix slice (plus a length band for
    # fuzzy), and the residual predicate runs vectorized over the slice.

    def _term_range(self, lo: str, hi: str, field: str | None = None) -> np.ndarray:
        """Sorted unique dictionary terms in [lo, hi) for `field` (prefixes
        stripped). For the default field, prefixed (field-qualified) keys are
        filtered out of the range."""
        fk = self._fkey(field)
        parts = []
        for seg in self.segments:
            st = seg._sorted_terms
            a = np.searchsorted(st, fk + lo, side="left")
            b = np.searchsorted(st, fk + hi, side="left")
            if b > a:
                parts.append(st[a:b])
        if not parts:
            return np.empty(0, dtype=object)
        out = np.unique(np.concatenate(parts))
        if fk:
            out = np.array([t[len(fk):] for t in out], dtype=object)
        elif out.size:
            keep = np.char.find(out.astype(str), FIELD_SEP) < 0
            out = out[keep]
        return out

    def _terms_with_prefix(self, prefix: str, field: str | None = None) -> np.ndarray:
        return self._term_range(prefix, prefix + TERM_MAX, field)

    @staticmethod
    def _literal_prefix(pattern: str, meta: str) -> str:
        out = []
        for ch in pattern:
            if ch in meta or ch == "\\":
                break
            out.append(ch)
        return "".join(out)

    def _expand_wildcard(self, pattern: str, field: str | None = None) -> list[str]:
        import re as _re

        lit = self._literal_prefix(pattern, "*?[")
        cands = self._term_range(lit, lit + TERM_MAX, field) if lit else \
            self._term_range("", TERM_MAX, field)
        if cands.size == 0:
            return []
        # wildcard -> anchored regex, evaluated vectorized by Arrow's re2
        rx = "^" + "".join(
            ".*" if c == "*" else "." if c == "?" else _re.escape(c)
            for c in pattern) + "$"
        import pyarrow.compute as _pc

        mask = _pc.match_substring_regex(pa.array(cands.astype(str)), rx)
        return [str(t) for t in cands[np.asarray(mask)]]

    @staticmethod
    def _lucene_regexp_translate(pattern: str) -> str:
        """Lucene RegExp operator syntax (org.apache.lucene.util.automaton
        .RegExp [Lucene 8.5, public knowledge], engaged by
        RegexpQueryBuilder): `<n-m>` numeric-interval classes become an
        explicit integer alternation (longest-first so fullmatch is
        unambiguous) and `@` (ANYSTRING) becomes `.*`. The complement
        (`~`) and intersection (`&`) OPERATORS are handled one level up
        in _split_lucene_conjuncts (they change match semantics, not
        the regex text)."""
        import re as _re

        def interval(m: "_re.Match") -> str:
            lo, hi = int(m.group(1)), int(m.group(2))
            if lo > hi:
                lo, hi = hi, lo
            if hi - lo > 4096:
                raise ValueError("interval class too wide")
            alts = sorted((str(v) for v in range(lo, hi + 1)),
                          key=len, reverse=True)
            return "(?:" + "|".join(alts) + ")"

        out = _re.sub(r"<(\d+)-(\d+)>", interval, pattern)
        return out.replace("@", ".*")

    @staticmethod
    def _split_lucene_conjuncts(pattern: str) -> list[tuple[bool, str]]:
        """Lucene RegExp INTERSECTION (`a&b`: a term must match every
        conjunct) and COMPLEMENT (`~exp`: the conjunct matches iff exp
        does NOT) — both default-enabled flags in the reference's
        RegexpQueryBuilder. Split on top-level `&` (outside [] and ()),
        then strip one leading `~` per conjunct as the negation flag.
        Returns [(negated, sub_pattern), ...]."""
        parts, buf, depth, in_cls = [], [], 0, False
        i = 0
        while i < len(pattern):
            ch = pattern[i]
            if ch == "\\" and i + 1 < len(pattern):
                buf.append(pattern[i:i + 2])
                i += 2
                continue
            if in_cls:
                if ch == "]":
                    in_cls = False
            elif ch == "[":
                in_cls = True
            elif ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "&" and depth == 0:
                parts.append("".join(buf))
                buf = []
                i += 1
                continue
            buf.append(ch)
            i += 1
        parts.append("".join(buf))
        out = []
        for p in parts:
            neg = p.startswith("~")
            if neg:
                p = p[1:]
                if p.startswith("(") and p.endswith(")"):
                    p = p[1:-1]
            out.append((neg, p))
        return out

    def _expand_regexp(self, pattern: str, field: str | None = None) -> list[str]:
        import re as _re

        conjuncts = IndexSearcher._split_lucene_conjuncts(pattern)
        if len(conjuncts) > 1 or conjuncts[0][0]:
            # intersection/complement semantics: evaluate every conjunct
            # over the dictionary range and AND the (possibly negated)
            # full-match masks
            cands = self._term_range("", TERM_MAX, field)
            if cands.size == 0:
                return []
            import pyarrow.compute as _pc

            mask = np.ones(cands.size, bool)
            arr = pa.array(cands.astype(str))
            for neg, sub in conjuncts:
                sub_rx = IndexSearcher._lucene_regexp_translate(sub)
                m = np.asarray(_pc.match_substring_regex(
                    arr, f"^(?:{sub_rx})$"))
                mask &= ~m if neg else m
            return [str(t) for t in cands[mask]]

        # class-qualified: tests drive this method on faux-searcher
        # namespaces that bind only the functions they exercise
        pattern = IndexSearcher._lucene_regexp_translate(pattern)
        lit = self._literal_prefix(pattern, "*?+.[](){}|^$")
        cands = self._term_range(lit, lit + TERM_MAX, field) if lit else \
            self._term_range("", TERM_MAX, field)
        if cands.size == 0:
            return []
        import pyarrow.compute as _pc

        try:  # re2 (vectorized) first; fall back to Python re for exotic syntax
            mask = np.asarray(
                _pc.match_substring_regex(pa.array(cands.astype(str)),
                                          f"^(?:{pattern})$"))
        except Exception:
            rx = _re.compile(pattern)
            mask = np.fromiter((rx.fullmatch(str(t)) is not None for t in cands),
                               bool, cands.size)
        return [str(t) for t in cands[mask]]

    def _expand_fuzzy(self, term: str, fuzziness: int,
                      field: str | None = None, prefix_length: int = 0,
                      max_expansions: int | None = None,
                      transpositions: bool = False) -> list[str]:
        """Candidates = dictionary slice (optionally restricted to the
        FuzzyQuery prefixLength shared prefix), banded by length
        (+- fuzziness), then a Levenshtein DP vectorized over ALL candidates
        at once (the rows of the DP table are numpy vectors over
        candidates x positions). max_expansions keeps the top-N expansions
        by (distance asc, term asc) — the deterministic analog of the
        reference's top-terms rewrite cap."""
        if prefix_length > 0:
            pref = term[:prefix_length]
            cands = self._term_range(pref, pref + TERM_MAX, field)
        else:
            cands = self._term_range("", TERM_MAX, field)
        if cands.size == 0:
            return []
        cand_s = cands.astype(str)
        lens = np.char.str_len(cand_s)
        band = np.abs(lens - len(term)) <= fuzziness
        cand_s = cand_s[band]
        if cand_s.size == 0:
            return []
        dist_fn = osa_vec if transpositions else levenshtein_vec
        dists = dist_fn(term, cand_s)
        keep = dists <= fuzziness
        cand_s, dists = cand_s[keep], dists[keep]
        if max_expansions is not None and cand_s.size > max_expansions:
            order = np.lexsort((cand_s, dists))[:max_expansions]
            cand_s = cand_s[order]
        return [str(t) for t in cand_s]

    def _exists_ids(self, field: str) -> np.ndarray:
        """Doc ids whose `field` has a non-null value. Indexed fields check the
        per-field length column nullness; any other docmeta column checks the
        stored value directly (doc-values presence)."""
        import pyarrow.compute as _pc

        field = self.field_aliases.get(field, field)
        if field == self.main_field:
            return self._all_doc_ids()
        col = f"len_{field}" if field in self.extra_fields else field
        if col not in self._meta_tables[0].column_names:
            return np.empty(0, np.int64)
        parts = []
        for mt in self._meta_tables:
            mask = _pc.is_valid(mt[col])
            parts.append(mt.filter(mask)["doc_id"].to_numpy())
        ids = np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        return ids.astype(np.int64)

    def _constant_union(self, terms: list[str], boost: float,
                        field: str | None = None):
        parts = []
        for t in terms:
            tp = self._get_term(t, field)
            if tp is not None:
                parts.append(tp.doc_ids)
        if not parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        ids = np.unique(np.concatenate(parts))
        return ids, np.full(ids.size, boost, np.float64)

    def _terms_set(self, terms: list[str], min_match: int, boost: float,
                   field: str | None = None):
        parts = []
        for t in dict.fromkeys(terms):
            tp = self._get_term(t, field)
            if tp is not None:
                parts.append((tp.doc_ids, self._term_scores(tp, field=field)))
        if not parts:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        ids, sc = self._accumulate(parts)
        cnt = np.zeros(ids.size, np.int64)
        for p_ids, _ in parts:
            idx = np.searchsorted(p_ids, ids)
            idx = np.minimum(idx, p_ids.size - 1)
            cnt += (p_ids[idx] == ids).astype(np.int64)
        keep = cnt >= min_match
        return ids[keep], sc[keep] * boost

    def _dis_max(self, subqueries: list[dict], tie_breaker: float, boost: float):
        """DisMaxQueryBuilder: max of clause scores + tie_breaker * others."""
        evaled = [self._eval(sq) for sq in subqueries]
        all_ids = np.unique(np.concatenate([e[0] for e in evaled])) if evaled else np.empty(0, np.int64)
        if all_ids.size == 0:
            return all_ids, np.empty(0, np.float64)
        best = np.zeros(all_ids.size, np.float64)
        total = np.zeros(all_ids.size, np.float64)
        for ids, sc in evaled:
            if ids.size == 0:
                continue
            idx = np.searchsorted(ids, all_ids)
            idx = np.minimum(idx, ids.size - 1)
            hit = ids[idx] == all_ids
            v = np.where(hit, sc[idx], 0.0)
            np.maximum(best, v, out=best)
            total += v
        return all_ids, (best + tie_breaker * (total - best)) * boost

    def _meta_values(self, field: str, doc_ids: np.ndarray) -> np.ndarray:
        key = f"_meta_dense_{field}"
        arr = getattr(self, key, None)
        if arr is None:
            arr = np.zeros(self.max_doc + 1, dtype=np.float64)
            for mt in self._meta_tables:
                arr[mt["doc_id"].to_numpy()] = mt[field].to_numpy().astype(np.float64)
            setattr(self, key, arr)
        return arr[doc_ids]

    def _more_like_this(self, like_text: str, max_terms: int,
                        exclude_doc: int | None, boost: float,
                        unlike: str | None = None, min_term_freq: int = 1):
        """MoreLikeThisQueryBuilder essence ("like" text form): analyze the
        example text, keep its top `max_query_terms` terms by (tf desc, term
        asc), OR them with BM25; optionally exclude the source doc itself.
        `unlike` (MoreLikeThisQueryBuilder unlikeTexts -> XMoreLikeThis
        skip terms) removes every term of the negative example BEFORE
        selection; `min_term_freq` (default 2 in the reference, 1 here
        for back-compat with existing ops) drops rare example terms."""
        from collections import Counter

        counts = Counter(self._analyzer_for(None)(like_text))
        skip = set(self._analyzer_for(None)(unlike)) if unlike else set()
        counts = {t: c for t, c in counts.items()
                  if c >= min_term_freq and t not in skip}
        chosen = [t for t, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:max_terms]]
        ids, sc = self._disjunction(chosen, boost)
        if exclude_doc is not None:
            keep = ids != int(exclude_doc)
            ids, sc = ids[keep], sc[keep]
        return ids, sc

    def _meta_term(self, field: str, value):
        import pyarrow.compute as _pc

        parts = []
        for mt in self._meta_tables:
            mask = _pc.equal(mt[field], value)
            parts.append(mt.filter(mask)["doc_id"].to_numpy())
        ids = np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        return ids, np.zeros(ids.size, np.float64)

    def _disjunction(self, terms: list[str], boost: float = 1.0,
                     field: str | None = None):
        # a REPEATED analyzed token contributes one clause per occurrence,
        # exactly like the reference's MatchQuery building duplicate
        # TermQuery clauses (scores accumulate per clause)
        scored: dict[str, tuple] = {}
        parts = []
        for t in terms:
            if t not in scored:
                tp = self._get_term(t, field)
                scored[t] = None if tp is None else                     (tp.doc_ids, self._term_scores(tp, boost, field))
            if scored[t] is not None:
                parts.append(scored[t])
        return self._accumulate(parts)

    def _conjunction(self, terms: list[str], boost: float = 1.0,
                     field: str | None = None):
        by_term: dict[str, object] = {}
        for t in dict.fromkeys(terms):
            tp = self._get_term(t, field)
            if tp is None:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            by_term[t] = tp
        tps = sorted(by_term.values(), key=lambda tp: tp.df)
        cand = tps[0].doc_ids
        for tp in tps[1:]:
            idx = np.searchsorted(tp.doc_ids, cand)
            idx = np.minimum(idx, tp.doc_ids.size - 1)
            cand = cand[tp.doc_ids[idx] == cand]
            if cand.size == 0:
                return cand, np.empty(0, np.float64)
        total = np.zeros(cand.size, np.float64)
        for t in terms:  # one score contribution PER OCCURRENCE
            tp = by_term[t]
            sc = self._term_scores(tp, field=field)
            idx = np.searchsorted(tp.doc_ids, cand)
            total += sc[idx].astype(np.float64) * 1.0
        if boost != 1.0:
            total *= boost
        return cand, total

    def _prefix(self, prefix: str, boost: float = 1.0, field: str | None = None):
        """CONSTANT_SCORE rewrite [Lucene 8.5]: union of matching terms' docs,
        score = boost for every match. The doc streams of all matching rows
        decode in one call."""
        fk = self._fkey(field)
        pieces = []
        for seg in self.segments:
            rows = seg.prefix_rows(fk + prefix)
            if not fk and rows.size:
                # default field: skip field-qualified keys
                rows = rows[np.char.find(seg.terms[rows].astype(str), FIELD_SEP) < 0]
            pieces += seg.pieces(rows)
        if not pieces:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        rows = [(c, s) for c, r in pieces for s in r.tolist()]
        df = np.array([c.df[s] for c, s in rows], np.int64)
        self.counters["postings_rows"] += len(rows)
        self.counters["varbyte_decodes"] += 1
        ids = np.unique(decode_doc_rows(*_gather(rows, "doc_bytes"), df))
        return ids, np.full(ids.size, boost, np.float64)

    def _phrase_setup(self, text: str, field: str | None):
        """(rel, tps, cand): analyzed phrase offsets, term postings and the
        sorted conjunction candidates — shared by the exhaustive and
        impact-bounded phrase paths."""
        terms_pos = self._analyzer_for(field).positions(text)
        if not terms_pos:
            return None
        base0 = terms_pos[0][1]
        rel = [(t, p - base0) for t, p in terms_pos]
        tps = []
        for t, _ in rel:
            tp = self._get_term(t, field)
            if tp is None:
                return None
            tps.append(tp)
        cand = tps[0].doc_ids
        for tp in tps[1:]:
            idx = np.searchsorted(tp.doc_ids, cand)
            idx = np.minimum(idx, tp.doc_ids.size - 1)
            cand = cand[tp.doc_ids[idx] == cand]
        return rel, tps, cand

    def _phrase_freqs(self, rel, tps, cand):
        """(indexes into cand, phrase freqs) for the docs where the exact
        phrase occurs — vectorized across ALL candidates at once: encode
        (candidate_index, aligned_position) as one int64 key per pair and
        intersect the per-term key sets (positions per doc are unique, so
        keys are unique). Keys usually arrive doc-ascending from
        segment-ordered posting rows, so sorting is an O(n) check with a
        sort fallback (hot-term salted rows can interleave); the
        intersection is a searchsorted membership test and per-doc freqs
        come from run-length boundaries."""
        inter = None
        for (t, off), tp in zip(rel, tps):
            ci, flat = self._positions_pairs(tp, cand)
            aligned = flat - off
            ok = aligned >= 0
            keys = (ci[ok] << np.int64(32)) | aligned[ok]
            if keys.size > 1 and not bool((keys[1:] >= keys[:-1]).all()):
                keys.sort()
            if inter is None:
                inter = keys
            else:
                small, big = ((inter, keys) if inter.size <= keys.size
                              else (keys, inter))
                if big.size == 0 or small.size == 0:
                    inter = np.empty(0, np.int64)
                else:
                    idx = np.minimum(np.searchsorted(big, small),
                                     big.size - 1)
                    inter = small[big[idx] == small]
            if inter.size == 0:
                break
        if inter is None or inter.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        d_all = inter >> np.int64(32)
        change = np.empty(d_all.size, bool)
        change[0] = True
        change[1:] = d_all[1:] != d_all[:-1]
        starts = np.flatnonzero(change)
        return d_all[starts], np.diff(np.append(starts, d_all.size))

    def _phrase_weight(self, tps, boost: float):
        """PhraseQuery weight: boost*(k1+1) times the SUM of term idfs, in
        the similarity mode's arithmetic."""
        if self.bm25.mode == "lucene":
            idf_sum = np.float32(0.0)
            for tp in tps:
                idf_sum = np.float32(
                    idf_sum + self.bm25.idf(self._df(tp), self.n_docs))
            return (np.float32(boost)
                    * (np.float32(self.bm25.k1) + np.float32(1.0))) * idf_sum
        idf_sum = sum(self.bm25.idf(self._df(tp), self.n_docs) for tp in tps)
        return boost * idf_sum * (self.bm25.k1 + 1)

    def _phrase_score(self, freqs, cand, w, field):
        norm_bytes, doc_lens, avgdl, cache32 = self._field_stats(field)
        if self.bm25.mode == "lucene":
            return self.bm25.score_tf(freqs, norm_bytes[cand], None, avgdl,
                                      w, cache32)
        return self.bm25.score_tf(freqs, None, doc_lens[cand], avgdl, w)

    def _phrase(self, text: str, boost: float = 1.0, field: str | None = None):
        """PhraseQuery semantics [Lucene 8.5]: docs where terms appear at
        consecutive positions; freq = number of phrase occurrences; weight
        uses the SUM of the terms' idfs."""
        setup = self._phrase_setup(text, field)
        if setup is None:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        rel, tps, cand = setup
        if len(tps) == 1:
            # a one-term phrase degenerates to a term query (freq = tf);
            # skip the position gather entirely
            tp = tps[0]
            return tp.doc_ids, self._term_scores(tp, boost, field).astype(
                np.float64)
        if cand.size == 0:
            return cand, np.empty(0, np.float64)
        docs_idx, freqs = self._phrase_freqs(rel, tps, cand)
        cand = cand[docs_idx]
        if cand.size == 0:
            return cand, np.empty(0, np.float64)
        w = self._phrase_weight(tps, boost)
        sc = self._phrase_score(freqs, cand, w, field)
        return cand, sc.astype(np.float64)

    def _phrase_topk(self, text: str, k: int, boost: float = 1.0,
                     field: str | None = None, chunk: int = 4096):
        """Impact-bounded top-k phrase collector (the PhraseQuery impacts
        analog [Lucene 8.5]): phrase freq <= min over terms of tf, and BM25
        is monotone in freq at fixed norm, so score(min_tf) upper-bounds the
        true score. Candidates are verified in bound-descending chunks and
        collection stops when the next chunk's best bound cannot beat the
        kth collected score — positions are gathered for a small prefix of
        candidates instead of all of them. Rank-identical to the exhaustive
        path (tested)."""
        setup = self._phrase_setup(text, field)
        if setup is None:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        rel, tps, cand = setup
        if len(tps) == 1:
            tp = tps[0]
            return self._topk(tp.doc_ids,
                              self._term_scores(tp, boost, field).astype(np.float64), k)
        if cand.size <= 4 * chunk:
            ids, sc = self._phrase(text, boost, field)
            return self._topk(ids, sc, k)
        # per-candidate min tf across terms -> score upper bound
        min_tf = None
        for tp in tps:
            idx = np.searchsorted(tp.doc_ids, cand)
            tf_t = tp.tfs[np.minimum(idx, tp.doc_ids.size - 1)]
            min_tf = tf_t if min_tf is None else np.minimum(min_tf, tf_t)
        w = self._phrase_weight(tps, boost)
        bounds = np.asarray(self._phrase_score(min_tf, cand, w, field),
                            np.float64)
        order = np.argsort(-bounds, kind="stable")
        got_ids: list[np.ndarray] = []
        got_sc: list[np.ndarray] = []
        kth = -np.inf
        n_collected = 0
        for c0 in range(0, order.size, chunk):
            sel = order[c0:c0 + chunk]
            if n_collected >= k and bounds[sel[0]] < kth:
                break
            sub = np.sort(cand[sel])
            docs_idx, freqs = self._phrase_freqs(rel, tps, sub)
            if docs_idx.size:
                ids_v = sub[docs_idx]
                sc_v = np.asarray(self._phrase_score(freqs, ids_v, w, field),
                                  np.float64)
                got_ids.append(ids_v)
                got_sc.append(sc_v)
                n_collected += ids_v.size
                if n_collected >= k:
                    all_sc = np.concatenate(got_sc)
                    kth = np.partition(all_sc, all_sc.size - k)[all_sc.size - k] \
                        if all_sc.size >= k else -np.inf
        if not got_ids:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return self._topk(np.concatenate(got_ids), np.concatenate(got_sc), k)

    def matched_queries(self, named: dict[str, dict]):
        """matched_queries fetch subphase (FetchPhase named-queries,
        MatchedQueriesPhase): annotate every matching doc with the named
        queries it satisfies. Runs against THIS searcher's partition only —
        under DistributedSearcher each actor annotates its own docs and the
        driver sees (doc_id, matched) rows bounded by the match count, not
        per-query id sets. Vectorized: per-name id arrays label-joined with
        one lexsort + pandas group-join."""
        import pandas as pd

        ids_parts, name_parts = [], []
        for name in sorted(named):
            ids, _ = self._eval(named[name])
            if ids.size:
                ids_parts.append(ids.astype(np.int64))
                name_parts.append(np.full(ids.size, name, dtype=object))
        if not ids_parts:
            return pd.DataFrame({"doc_id": pd.Series([], dtype=np.int64),
                                 "matched": pd.Series([], dtype=object)})
        frame = pd.DataFrame({
            "doc_id": np.concatenate(ids_parts),
            "name": np.concatenate(name_parts),
        }).sort_values(["doc_id", "name"])
        out = (frame.groupby("doc_id")["name"].agg(",".join)
               .reset_index().rename(columns={"name": "matched"}))
        return out.sort_values("doc_id").reset_index(drop=True)

    def _sloppy_phrase(self, text: str, slop: int, boost: float = 1.0,
                       field: str | None = None):
        """Sloppy PhraseQuery, score-exact [Lucene 8.5 SloppyPhraseMatcher]:
        freq = sum over match events of 1/(1 + matchLength), where the match
        events come from the published min-advance algorithm (advance the
        min-position term through its positions while they stay at or below
        the next term's position, tracking the smallest window; emit a match
        when it passes). Phrases with repeated terms run the full repeats
        machinery (_sloppy_freq_rpts): repeat groups, collision resolution by
        advancing the lesser pp, init-time group separation."""
        terms_pos = self._analyzer_for(field).positions(text)
        if not terms_pos:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        if len(terms_pos) == 1:
            return self._phrase(text, boost, field)
        terms = [t for t, _ in terms_pos]
        base0 = terms_pos[0][1]
        rel = [(t, p - base0) for t, p in terms_pos]
        tps = []
        for t, _ in rel:
            tp = self._get_term(t, field)
            if tp is None:
                return np.empty(0, np.int64), np.empty(0, np.float64)
            tps.append(tp)
        cand = tps[0].doc_ids
        for tp in tps[1:]:
            idx = np.searchsorted(tp.doc_ids, cand)
            idx = np.minimum(idx, tp.doc_ids.size - 1)
            cand = cand[tp.doc_ids[idx] == cand]
        if cand.size == 0:
            return cand, np.empty(0, np.float64)
        # adjusted position lists per (term, candidate)
        per_term = [self._positions_for(tp, cand) for tp in tps]
        offsets = [off for _, off in rel]
        # repeat groups: phrase slots sharing a term (Lucene repeatingTerms)
        by_term: dict[str, list[int]] = {}
        for i, (t, _) in enumerate(rel):
            by_term.setdefault(t, []).append(i)
        groups = [-1] * len(rel)
        gid = 0
        for t, members in by_term.items():
            if len(members) > 1:
                for i in members:
                    groups[i] = gid
                gid += 1
        has_rpts = gid > 0
        freqs = np.zeros(cand.size, np.float64)
        for ci in range(cand.size):
            lists = [per_term[ti][ci] - off for ti, (_, off) in enumerate(rel)]
            if any(pl.size == 0 for pl in lists):
                continue
            if has_rpts:
                freqs[ci] = _sloppy_freq_rpts(lists, offsets, groups, slop)
            else:
                freqs[ci] = _sloppy_freq(lists, slop)
        keep = freqs > 0.0
        cand, freqs = cand[keep], freqs[keep]
        if cand.size == 0:
            return cand, np.empty(0, np.float64)
        norm_bytes, doc_lens, avgdl, cache32 = self._field_stats(field)
        if self.bm25.mode == "lucene":
            idf_sum = np.float32(0.0)
            for tp in tps:
                idf_sum = np.float32(idf_sum + self.bm25.idf(self._df(tp), self.n_docs))
            w = (np.float32(boost) * (np.float32(self.bm25.k1) + np.float32(1.0))) * idf_sum
            sc = self.bm25.score_tf(freqs, norm_bytes[cand], None, avgdl, w, cache32)
        else:
            idf_sum = sum(self.bm25.idf(self._df(tp), self.n_docs) for tp in tps)
            w = boost * idf_sum * (self.bm25.k1 + 1)
            sc = self.bm25.score_tf(freqs, None, doc_lens[cand], avgdl, w)
        return cand, sc.astype(np.float64)

    def _merged_positions(self, tp: TermPostings):
        """One (ids, pos, starts, cuts) structure for ALL of a term's
        postings rows (`TermPostings.decode_positions`: one decode call
        over every row's position bytes). Salted hot-term chunks and
        adjacent segments cover disjoint ordered doc-id ranges, so the rows
        concatenate into one globally sorted structure (SCALE.md §3 — the
        zero-cost salted-group merge), probed once per candidate set.

        This is the only position cache: the structure is kept on the
        TermPostings while the searcher-wide budget (~16M positions ≈
        512 MB across all cached terms) has room, and the term's share is
        released when it leaves the term cache. Returns None for a term
        whose position stream exceeds ~64M entries (or whose `_pos_merged`
        is False); callers then decode it row by row (`_position_parts`)."""
        m = getattr(tp, "_pos_merged", None)
        if m is False:
            return None
        if m is not None:
            return m
        # varbyte positions are >=1 byte each, so the byte length bounds the
        # entry count from above; only Zipf-head terms on very large
        # single-searcher partitions pass the gate (distributed searchers
        # bound this by construction)
        if tp.stream_size("pos_bytes") > 64_000_000:
            tp._pos_merged = False
            return None
        m = tp.decode_positions()
        if self._pos_cache_total < 16_000_000:
            self._pos_cache_total += m[1].size - tp._pos_cache_elems
            tp._pos_cache_elems = m[1].size
            tp._pos_merged = m
        return m

    def _position_parts(self, tp: TermPostings):
        """(ids, pos, starts, cuts) structures covering the term's docs:
        the merged one, or one per postings row for a term over the merge
        budget (each row's doc ids and tfs sliced from `decode_all`)."""
        merged = self._merged_positions(tp)
        if merged is not None:
            return [merged]
        return (tp.decode_positions(ri) for ri in range(len(tp.rows)))

    def _positions_pairs(self, tp: TermPostings, cand: np.ndarray):
        """Flattened (cand_index, position) pairs for all candidates at once —
        no per-candidate Python loop or array-of-arrays. Used by the phrase
        verifier over large candidate sets; spans use _positions_for."""
        ci_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        for ids, pos, starts, cuts in self._position_parts(tp):
            if ids.size == 0:
                continue
            idx = np.searchsorted(ids, cand)
            safe = np.minimum(idx, ids.size - 1)
            hit = np.flatnonzero(ids[safe] == cand)
            if hit.size == 0:
                continue
            j = idx[hit]
            lens = cuts[j] - starts[j]
            tot = int(lens.sum())
            if tot == 0:
                continue
            # flat gather: ranges [starts[j], cuts[j]) concatenated
            prefix = np.concatenate([[0], np.cumsum(lens)[:-1]])
            gidx = np.repeat(starts[j] - prefix, lens) + np.arange(tot)
            ci_parts.append(np.repeat(hit, lens))
            pos_parts.append(pos[gidx])
        if not ci_parts:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        if len(ci_parts) == 1:
            return ci_parts[0], pos_parts[0]
        return np.concatenate(ci_parts), np.concatenate(pos_parts)

    def _positions_for(self, tp: TermPostings, cand: np.ndarray) -> list[np.ndarray]:
        """positions arrays aligned with cand (empty when doc lacks term),
        sliced from the decoded position structures."""
        out = [np.empty(0, np.int64)] * cand.size
        for ids, pos, starts, cuts in self._position_parts(tp):
            if ids.size == 0:
                continue
            idx = np.searchsorted(ids, cand)
            safe = np.minimum(idx, ids.size - 1)
            for ci in np.flatnonzero(ids[safe] == cand):  # each cand hits <=1 part
                j = idx[ci]
                out[ci] = pos[starts[j]:cuts[j]]
        return out

    def _all_doc_ids(self) -> np.ndarray:
        """All doc ids this searcher holds (a partition holds a subset),
        sorted ascending — the MatchAllDocsQuery doc set."""
        ids = getattr(self, "_all_ids_cache", None)
        if ids is None:
            ids = np.sort(np.concatenate(
                [mt["doc_id"].to_numpy() for mt in self._meta_tables]
            )).astype(np.int64)
            self._all_ids_cache = ids
        return ids

    @staticmethod
    def parse_min_should_match(spec, n_clauses: int) -> int:
        """Lucene Queries.calculateMinShouldMatch spec (the
        minimum_should_match grammar shared by bool/match/query_string):
        int ("3"), negative ("-2" = n-2), percentage ("75%" =
        trunc(n*0.75)), negative percentage ("-25%" = n - trunc(n*0.25))
        and conditional chains ("2<75% 9<-3"). Chains follow Lucene's
        sequential semantics: parts are evaluated left to right and the
        scan RETURNS EARLY at the first part whose cond >= n (yielding
        the result accumulated so far, initially n = all required); an
        unsorted chain therefore differs from "largest cond < n".
        Negative results clamp to 0; results above n are NOT clamped —
        msm > n means no doc can satisfy the bool (Lucene leaves the
        over-count in place and the BooleanQuery matches nothing)."""
        n = int(n_clauses)

        def calc(one: str) -> int:
            one = one.strip()
            if one.endswith("%"):
                pct = float(one[:-1])
                v = int(n * abs(pct) / 100.0)  # truncation, per Lucene
                return n - v if pct < 0 else v
            v = int(one)
            return n + v if v < 0 else v

        spec = str(spec).strip()
        if "<" in spec:
            result = n  # below the first condition: all required
            for part in spec.split():
                cond_s, _, sub = part.partition("<")
                if n <= int(cond_s):
                    return max(0, result)
                result = calc(sub)
            return max(0, result)
        return max(0, calc(spec))

    def _bool(self, q: dict, boost: float = 1.0):
        must = [self._eval(c) for c in q.get("must", [])]
        should = [self._eval(c) for c in q.get("should", [])]
        filt = [self._eval(c) for c in q.get("filter", [])]
        must_not = [self._eval(c) for c in q.get("must_not", [])]
        pure_negative = False
        if must or filt:
            cand = None
            for ids, _ in must + filt:
                cand = ids if cand is None else np.intersect1d(cand, ids, assume_unique=True)
        elif should:
            u_ids, _ = self._accumulate(should)
            cand = u_ids
        else:
            # clause-less bool -> MatchAllDocsQuery; pure-negative bool ->
            # match_all minus excluded (BoolQueryBuilder.java:313-318,
            # adjustPureNegative default true). Constant score 1.0 per doc.
            cand = self._all_doc_ids()
            pure_negative = True
        for ids, _ in must_not:
            cand = np.setdiff1d(cand, ids, assume_unique=True)
        if cand is None or cand.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        if pure_negative:
            return cand, np.full(cand.size, boost, np.float64)
        msm_spec = q.get("minimum_should_match")
        if should and msm_spec is not None and cand.size:
            # BoolQueryBuilder#minimumShouldMatch: candidates must match
            # at least msm of the should clauses (grammar above)
            msm = self.parse_min_should_match(msm_spec, len(should))
            if msm > 0:
                cnt = np.zeros(cand.size, np.int64)
                for ids, _ in should:
                    if not ids.size:
                        continue
                    idx = np.searchsorted(ids, cand)
                    idx = np.minimum(idx, ids.size - 1)
                    cnt[ids[idx] == cand] += 1
                cand = cand[cnt >= msm]
                if cand.size == 0:
                    return np.empty(0, np.int64), np.empty(0, np.float64)
        total = np.zeros(cand.size, np.float64)
        for ids, sc in must + should:  # filter clauses don't score
            idx = np.searchsorted(ids, cand)
            if ids.size:
                idx = np.minimum(idx, ids.size - 1)
                hit = ids[idx] == cand
                total[hit] += sc[idx[hit]]
        if boost != 1.0:
            total *= boost
        return cand, total

    def search_body(self, query: dict, *, post_filter: dict | None = None,
                    terminate_after: int | None = None,
                    track_total_hits: int | None = None,
                    docvalue_fields: list[str] | None = None,
                    k: int = 10):
        """SearchSourceBuilder options around the query phase
        (search/builder/SearchSourceBuilder.java; collector chain order
        per search/query/QueryPhase.java:218-244):

        - `post_filter` narrows the returned HITS only — the total hit
          count (and aggregations, which consume `ids_all`) see the
          pre-filter doc set (SearchSourceBuilder#postFilter).
        - `terminate_after` stops collecting after N matching docs in
          doc-id order (the per-segment collection order) and flags
          `terminated_early`; the reported total is then the collected
          count with relation "eq" (TerminateAfterChecker semantics).
        - `track_total_hits` caps total counting: beyond the cap the
          total is the cap itself with relation "gte"
          (Lucene TotalHits.Relation.GREATER_THAN_OR_EQUAL_TO).
        - `docvalue_fields` fetches columnar fields for the returned
          hits (FetchDocValuesPhase).

        Returns dict(ids, scores, total, relation, terminated_early,
        fields, ids_all, scores_all) — fields is a pa.Table aligned with
        ids, or None."""
        ids, sc = self._eval(query)
        terminated = False
        if terminate_after is not None and ids.size > int(terminate_after):
            keep = np.sort(np.argsort(ids)[: int(terminate_after)])
            ids, sc = ids[keep], sc[keep]
            terminated = True
        total = int(ids.size)
        relation = "eq"
        if track_total_hits is not None and total > int(track_total_hits):
            total, relation = int(track_total_hits), "gte"
        ids_all, sc_all = ids, sc
        if post_filter is not None:
            f_ids, _ = self._eval(post_filter)
            mask = np.isin(ids, f_ids, assume_unique=True)
            ids, sc = ids[mask], sc[mask]
        top_ids, top_sc = self._topk(ids, sc, k)
        fields = (self.fetch(top_ids, docvalue_fields)
                  if docvalue_fields else None)
        return {"ids": top_ids, "scores": top_sc, "total": total,
                "relation": relation, "terminated_early": terminated,
                "fields": fields, "ids_all": ids_all, "scores_all": sc_all}

    # ---------- fetch phase ----------

    def fetch(self, doc_ids: np.ndarray, columns: list[str]) -> pa.Table:
        """FetchPhase analog: load stored fields for the (tiny) top-k set from
        the docmeta tables (search/fetch/FetchPhase.java)."""
        if self._docmeta is None:
            cols = set(self._meta_tables[0].column_names)
            self._docmeta = pa.concat_tables(self._meta_tables)
            order = np.argsort(self._docmeta["doc_id"].to_numpy())
            self._docmeta = self._docmeta.take(pa.array(order))
        all_ids = self._docmeta["doc_id"].to_numpy()
        idx = np.searchsorted(all_ids, doc_ids)
        return self._docmeta.select(columns).take(pa.array(idx))
