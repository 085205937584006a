"""NumPy BM25 over the generator's recorded term streams.

An answer key for the engine that shares no code with it. The arithmetic is
Lucene 8.5's BM25 as Elasticsearch runs it (LegacyBM25Similarity, k1=1.2,
b=0.75), written from the Lucene formulas:

* field length = number of indexed tokens, stored as one SmallFloat byte
  (``intToByte4``); scoring reads the decoded length back (``byte4ToInt``);
* ``idf = (float) ln(1 + (N - df + 0.5) / (df + 0.5))`` with global N and df;
* ``weight = (boost * (k1 + 1)) * idf`` in float;
* ``cache[b] = k1 * ((1 - b) + b * length(b) / avgdl)`` in float, with
  ``avgdl = (float)(sumTotalTermFreq / N)``;
* ``score = weight * (float)(freq / (freq + (double) cache[norm]))``;
* a phrase scores with the float sum of its terms' idfs and freq = number of
  phrase occurrences; a prefix query is constant-score (1.0);
* clause scores add in double and the total is rounded to float; the
  ranking is score descending, then doc id ascending.

Queries are given as *specs* (kind plus analyzed terms), built by the
benchmark from the same pieces it rendered the query text from.
"""

from __future__ import annotations

import math

import numpy as np

K1 = np.float32(1.2)
B = np.float32(0.75)


def int_to_byte4(i: int) -> int:
    """Lucene SmallFloat.intToByte4."""
    if i < 24:
        return i
    v = i - 24
    nbits = v.bit_length()
    if nbits < 4:
        return 24 + v
    shift = nbits - 4
    return 24 + (((v >> shift) & 0x07) | ((shift + 1) << 3))


def byte4_to_int(b: int) -> int:
    """Lucene SmallFloat.byte4ToInt."""
    if b < 24:
        return b
    i = b - 24
    bits, shift = i & 0x07, (i >> 3) - 1
    return 24 + (bits if shift == -1 else (bits | 0x08) << shift)


LENGTH_TABLE = np.array([byte4_to_int(b) for b in range(256)], dtype=np.float32)
_EMPTY = (np.empty(0, np.int64), np.empty(0, np.float64))


class Bm25Oracle:
    """Inverted file over (doc_id, term, position) triples kept as flat
    NumPy arrays sorted by (term, doc, position)."""

    def __init__(self):
        self.term_ids: dict[str, int] = {}
        self.terms: list[str] = []
        self._docs: list[np.ndarray] = []
        self._tids: list[np.ndarray] = []
        self._pos: list[np.ndarray] = []
        self._lens: dict[int, int] = {}
        self._dirty = True

    # ---------------- building ----------------

    def add(self, first_doc_id: int, streams) -> None:
        """streams: per doc (terms, positions); doc ids are consecutive."""
        docs, tids, poss = [], [], []
        for j, (terms, pos) in enumerate(streams):
            d = first_doc_id + j
            self._lens[d] = len(terms)
            for t in terms:
                tid = self.term_ids.get(t)
                if tid is None:
                    tid = self.term_ids[t] = len(self.terms)
                    self.terms.append(t)
                tids.append(tid)
            docs.extend([d] * len(terms))
            poss.extend(pos)
        self._docs.append(np.asarray(docs, np.int64))
        self._tids.append(np.asarray(tids, np.int64))
        self._pos.append(np.asarray(poss, np.int64))
        self._dirty = True

    def _finish(self) -> None:
        if not self._dirty:
            return
        docs = np.concatenate(self._docs)
        tids = np.concatenate(self._tids)
        pos = np.concatenate(self._pos)
        order = np.lexsort((pos, docs, tids))
        self.occ_doc, self.occ_tid, self.occ_pos = docs[order], tids[order], pos[order]
        self._docs, self._tids, self._pos = [self.occ_doc], [self.occ_tid], [self.occ_pos]
        self.term_start = np.searchsorted(self.occ_tid, np.arange(len(self.terms) + 1))
        norms = np.zeros(max(self._lens) + 1, np.int64)
        for d, n in self._lens.items():
            norms[d] = int_to_byte4(n)
        self.norm_byte = norms
        avgdl = np.float32(self.sum_doc_len / self.n_docs)
        self.cache = K1 * ((np.float32(1.0) - B) + B * LENGTH_TABLE / avgdl)
        self._postings: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._dirty = False

    # ---------------- statistics ----------------

    @property
    def n_docs(self) -> int:
        return len(self._lens)

    @property
    def sum_doc_len(self) -> int:
        return sum(self._lens.values())

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) for one term."""
        self._finish()
        tid = self.term_ids.get(term)
        if tid is None:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        hit = self._postings.get(tid)
        if hit is None:
            d = self.occ_doc[self.term_start[tid]:self.term_start[tid + 1]]
            ids, tfs = np.unique(d, return_counts=True)
            hit = self._postings[tid] = (ids, tfs)
        return hit

    def df(self, term: str) -> int:
        return int(self.postings(term)[0].size)

    def doc_freqs(self) -> dict[str, int]:
        self._finish()
        return {t: self.df(t) for t in self.terms}

    def idf(self, df: int) -> np.float32:
        return np.float32(math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5)))

    def _score(self, weight: np.float32, doc_ids: np.ndarray,
               freqs: np.ndarray) -> np.ndarray:
        norm = self.cache[self.norm_byte[doc_ids]].astype(np.float64)
        f = freqs.astype(np.float64)
        return (np.float32(weight) * (f / (f + norm)).astype(np.float32)).astype(np.float32)

    # ---------------- query kinds ----------------

    def _term(self, term: str):
        ids, tfs = self.postings(term)
        if ids.size == 0:
            return _EMPTY
        w = (np.float32(1.0) * (K1 + np.float32(1.0))) * self.idf(ids.size)
        return ids, self._score(w, ids, tfs).astype(np.float64)

    @staticmethod
    def _union(parts):
        parts = [p for p in parts if p[0].size]
        if not parts:
            return _EMPTY
        ids = np.concatenate([p[0] for p in parts])
        sc = np.concatenate([p[1] for p in parts])
        u, inv = np.unique(ids, return_inverse=True)
        out = np.zeros(u.size, np.float64)
        np.add.at(out, inv, sc)
        return u, out

    def _and(self, terms: list[str]):
        parts = [self._term(t) for t in terms]
        if any(p[0].size == 0 for p in parts):
            return _EMPTY
        common = parts[0][0]
        for ids, _ in parts[1:]:
            common = np.intersect1d(common, ids)
        total = np.zeros(common.size, np.float64)
        for ids, sc in parts:
            total += sc[np.searchsorted(ids, common)]
        return common, total

    def _phrase(self, terms: list[str], offsets: list[int]):
        if len(terms) == 1:
            return self._term(terms[0])
        self._finish()
        keys = None
        for t, off in zip(terms, offsets):
            tid = self.term_ids.get(t)
            if tid is None:
                return _EMPTY
            s, e = self.term_start[tid], self.term_start[tid + 1]
            k = self.occ_doc[s:e] * (1 << 32) + (self.occ_pos[s:e] - off)
            keys = k if keys is None else np.intersect1d(keys, k)
        docs = keys >> 32
        ids, freqs = np.unique(docs, return_counts=True)
        if ids.size == 0:
            return _EMPTY
        idf_sum = np.float32(0.0)
        for t in terms:
            idf_sum = np.float32(idf_sum + self.idf(self.df(t)))
        w = (np.float32(1.0) * (K1 + np.float32(1.0))) * idf_sum
        return ids, self._score(w, ids, freqs).astype(np.float64)

    def _prefix(self, prefix: str):
        self._finish()
        parts = [self.postings(t)[0] for t in self.terms if t.startswith(prefix)]
        if not parts:
            return _EMPTY
        ids = np.unique(np.concatenate(parts))
        return ids, np.ones(ids.size, np.float64)

    def evaluate(self, spec: dict):
        kind = spec["kind"]
        if kind == "term":
            return self._term(spec["terms"][0])
        if kind == "match_or":
            return self._union([self._term(t) for t in spec["terms"]])
        if kind == "match_and":
            return self._and(spec["terms"])
        if kind == "phrase":
            return self._phrase(spec["terms"], spec["offsets"])
        if kind == "prefix":
            return self._prefix(spec["prefix"])
        if kind == "bool":
            must = self._term(spec["must"])
            should = self._union([self._term(t) for t in spec["should"]])
            excluded = self._term(spec["must_not"])[0]
            keep = ~np.isin(must[0], excluded)
            ids, sc = must[0][keep], must[1][keep].copy()
            hit = np.isin(ids, should[0])
            sc[hit] += should[1][np.searchsorted(should[0], ids[hit])]
            return ids, sc
        raise ValueError(f"unknown query kind {kind!r}")

    def search(self, spec: dict) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (doc_ids, float32 scores): score desc, then doc id asc."""
        ids, sc = self.evaluate(spec)
        s32 = sc.astype(np.float32)
        order = np.lexsort((ids, -s32.astype(np.float64)))[: int(spec["k"])]
        return ids[order], s32[order]
