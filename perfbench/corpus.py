"""Seeded source-code corpus whose analyzed term streams are known by construction.

Every document is assembled from *pieces*: the lowercase sub-words that the
documented `code` analyzer emits for each identifier, keyword, number and
comment word. The generator decides the pieces first and renders the text
from them, so the expected term stream is recorded without running any
analyzer. The rules the rendering relies on (Elasticsearch `code` analyzer):

* tokenizer: runs of ``[A-Za-z0-9_']``; every other character separates;
* word_delimiter_graph defaults: split on ``_``, on case change
  (``parseHttp`` -> parse, http; ``HTTPServer`` -> http, server) and on
  letter/digit change (``node2`` -> node, 2); no catenation, no original;
* lowercase;
* stop filter with the Lucene English stop set. A removed stop word still
  takes a position (position increments are kept), so a piece's position is
  its index in the piece list and stop pieces are simply not indexed.

Document ``i`` depends only on ``(seed, i)`` and on the arguments that name
it (``marker``), never on how a range is split into calls or files. The
vocabulary is the same for every seed, like a language: seeds change the
documents, not the statistics of the words they are made of.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

# Lucene EnglishAnalyzer.ENGLISH_STOP_WORDS_SET
STOP_WORDS = frozenset(
    "a an and are as at be but by for if in into is it no not of on or such "
    "that the their then there these they this to was will with".split())

_SYLLABLES = ("ba be bi bo bu ca ce co cu da de di do du fa fe fi fo ga ge go "
              "ha he ho ka ke ki ko la le li lo lu ma me mi mo mu na ne ni nu "
              "pa pe pi po ra re ri ro ru sa se si so su ta te ti to tu va ve "
              "vi vo za ze zi zo").split()
_KEYWORDS = ("node tree graph hash index query scan filter sort merge join split "
             "buffer stream batch block chunk shard parse encode decode read "
             "write open close file path http request response server client "
             "cache queue task worker token term doc list map set vec key value "
             "count size len push pop get put post load store flush commit "
             "segment").split()
_COMMENT_WORDS = ("note result error fast slow check keep move later value first "
                  "last next loop call order").split()
_LANGS = (("py", "python"), ("java", "java"), ("go", "go"), ("rs", "rust"),
          ("js", "javascript"))

N_SUBWORDS = 1500
N_IDENTIFIERS = 6000
ZIPF_EXPONENT = 1.07
VOCABULARY_SEED = 20261019


class Vocabulary:
    """Sub-words and identifiers. An identifier is stored as (rendered text,
    pieces) where pieces are the terms the analyzer emits."""

    def __init__(self, seed: int = VOCABULARY_SEED):
        rng = np.random.default_rng([seed, 1])
        subs = list(dict.fromkeys(_KEYWORDS))
        seen = set(subs)
        while len(subs) < N_SUBWORDS:
            w = "".join(rng.choice(_SYLLABLES, size=int(rng.integers(1, 4))))
            if w not in seen and w not in STOP_WORDS and len(w) >= 2:
                seen.add(w)
                subs.append(w)
        self.subwords = subs
        idents: list[tuple[str, tuple[str, ...]]] = []
        # the 60 first sub-words are also bare identifiers: they form the hot head
        for w in subs[:60]:
            idents.append((w, (w,)))
        while len(idents) < N_IDENTIFIERS:
            k = int(rng.integers(2, 4))
            # Zipf-ish pick of sub-words so that common parts repeat
            parts = [subs[min(int(rng.zipf(1.3)) - 1, len(subs) - 1)
                          if rng.random() < 0.5 else int(rng.integers(0, len(subs)))]
                     for _ in range(k)]
            style = int(rng.integers(0, 7))
            idents.append(_render_identifier(parts, style, rng))
        self.identifiers = idents
        ranks = np.arange(1, len(idents) + 1, dtype=np.float64)
        p = ranks ** -ZIPF_EXPONENT
        self.cdf = np.cumsum(p / p.sum())


def _render_identifier(parts: list[str], style: int,
                       rng: np.random.Generator) -> tuple[str, tuple[str, ...]]:
    cap = [p.capitalize() for p in parts]
    if style == 0:  # camelCase
        return parts[0] + "".join(cap[1:]), tuple(parts)
    if style == 1:  # snake_case
        return "_".join(parts), tuple(parts)
    if style == 2:  # kebab-case: '-' is a tokenizer break, positions stay adjacent
        return "-".join(parts), tuple(parts)
    if style == 3:  # PascalCase
        return "".join(cap), tuple(parts)
    if style == 4:  # digit suffix: node2 -> node, 2
        n = str(int(rng.integers(0, 100)))
        return parts[0] + "".join(cap[1:]) + n, tuple(parts) + (n,)
    if style == 5:  # leading acronym: HTTPServer -> http, server
        return parts[0].upper() + "".join(cap[1:]), tuple(parts)
    # trailing acronym: parseHTTP -> parse, http
    return parts[0] + "".join(cap[1:-1]) + parts[-1].upper(), tuple(parts)


_VOCABULARY: list[Vocabulary] = []


def vocabulary() -> Vocabulary:
    if not _VOCABULARY:
        _VOCABULARY.append(Vocabulary())
    return _VOCABULARY[0]


def make_document(seed: int, i: int, marker: str | None = None
                  ) -> tuple[str, list[str]]:
    """Document i -> (content, pieces). Pieces include stop words; a piece's
    position is its index in the list."""
    voc = vocabulary()
    rng = np.random.default_rng([seed, 2, i])
    n_lines = int(rng.integers(3, 18))
    if i % 397 == 11:  # a few long files push norms deep into the lossy range
        n_lines *= 12
    draws = np.searchsorted(voc.cdf, rng.random(n_lines * 4))
    draws = np.minimum(draws, len(voc.identifiers) - 1)
    kinds = rng.integers(0, 6, size=n_lines)
    nums = rng.integers(0, 1000, size=n_lines)
    words = rng.integers(0, len(_COMMENT_WORDS), size=n_lines * 2)
    stops = rng.integers(0, 8, size=n_lines)
    idents = voc.identifiers
    lines: list[str] = []
    pieces: list[str] = []
    for j in range(n_lines):
        a, b, c, d = (idents[int(x)] for x in draws[4 * j: 4 * j + 4])
        n = str(int(nums[j]))
        kind = int(kinds[j])
        if kind == 0:
            lines.append(f"def {a[0]}({b[0]}, {c[0]}):")
            pieces += ["def", *a[1], *b[1], *c[1]]
        elif kind == 1:
            lines.append(f"    return {a[0]}.{b[0]}[{n}]")
            pieces += ["return", *a[1], *b[1], n]
        elif kind == 2:
            lines.append(f"{a[0]} = {b[0]}({c[0]}, {n})")
            pieces += [*a[1], *b[1], *c[1], n]
        elif kind == 3:
            lines.append(f"if {a[0]} != {b[0]}: {c[0]} += {n}")
            pieces += ["if", *a[1], *b[1], *c[1], n]
        elif kind == 4:
            lines.append(f"for {a[0]} in {b[0]}: {d[0]}()")
            pieces += ["for", *a[1], "in", *b[1], *d[1]]
        else:
            w1 = _COMMENT_WORDS[int(words[2 * j])]
            w2 = _COMMENT_WORDS[int(words[2 * j + 1])]
            stop = ("the", "of", "is", "to", "and", "not", "with", "this")[int(stops[j])]
            lines.append(f"# {w1} {stop} {a[0]} {w2}")
            pieces += [w1, stop, *a[1], w2]
    if marker is not None:
        lines.append(f"# batch {marker}")
        pieces += ["batch", marker]
    return "\n".join(lines), pieces


def row_meta(seed: int, i: int) -> tuple[str, str, str, str]:
    ext, lang = _LANGS[i % len(_LANGS)]
    return (f"org{i % 7}/proj{i % 23}", f"src/dir{i % 13}/file{i}.{ext}",
            hashlib.sha1(f"{seed}:{i}".encode()).hexdigest(), lang)


class CorpusSlice:
    """Rows [lo, hi) of one seeded corpus: parquet-ready columns plus the
    recorded piece streams (the oracle side)."""

    def __init__(self, seed: int, lo: int, hi: int, marker: str | None = None):
        self.lo, self.hi = lo, hi
        self.contents: list[str] = []
        self.pieces: list[list[str]] = []
        self.meta: list[tuple[str, str, str, str]] = []
        for i in range(lo, hi):
            text, pcs = make_document(seed, i, marker)
            self.contents.append(text)
            self.pieces.append(pcs)
            self.meta.append(row_meta(seed, i))

    def __len__(self) -> int:
        return self.hi - self.lo

    def indexed_streams(self) -> list[tuple[list[str], list[int]]]:
        """Per doc (terms, positions) with stop pieces dropped."""
        out = []
        for pcs in self.pieces:
            terms, pos = [], []
            for p, t in enumerate(pcs):
                if t not in STOP_WORDS:
                    terms.append(t)
                    pos.append(p)
            out.append((terms, pos))
        return out

    def sha256(self) -> list[str]:
        return [hashlib.sha256(c.encode()).hexdigest() for c in self.contents]

    def write(self, path: str, row_group_size: int = 500) -> str:
        import pyarrow as pa
        import pyarrow.parquet as pq

        cols = list(zip(*self.meta)) if self.meta else [[], [], [], []]
        table = pa.table({
            "repo": pa.array(cols[0], pa.string()),
            "path": pa.array(cols[1], pa.string()),
            "commit": pa.array(cols[2], pa.string()),
            "lang": pa.array(cols[3], pa.string()),
            "content": pa.array(self.contents, pa.string()),
        })
        os.makedirs(os.path.dirname(path), exist_ok=True)
        pq.write_table(table, path, row_group_size=row_group_size)
        return path


def write_corpus(out_dir: str, seed: int, n_docs: int,
                 rows_per_file: int = 1000) -> list[CorpusSlice]:
    """n_docs rows as part-NNNNN.parquet files of rows_per_file rows."""
    slices = []
    for fi, lo in enumerate(range(0, n_docs, rows_per_file)):
        s = CorpusSlice(seed, lo, min(lo + rows_per_file, n_docs))
        s.write(os.path.join(out_dir, f"part-{fi:05d}.parquet"))
        slices.append(s)
    return slices
