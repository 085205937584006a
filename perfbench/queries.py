"""Seeded query mixes. Each query is a pair (engine query dict, oracle spec);
both are rendered from the same pieces, so the oracle never analyzes text."""

from __future__ import annotations

import numpy as np

from .corpus import STOP_WORDS

KINDS = ("term", "match_or", "match_and", "phrase", "prefix", "bool")
TOP_K = (1, 10, 100)


def term_classes(df: dict[str, int], n_docs: int) -> dict[str, list[str]]:
    """hot / mid / rare by document frequency, each sorted by df descending."""
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
    out: dict[str, list[str]] = {"hot": [], "mid": [], "rare": []}
    for t, d in ranked:
        share = d / n_docs
        out["hot" if share >= 0.05 else "mid" if share >= 0.005 else "rare"].append(t)
    return out


def absent_terms(rng: np.random.Generator, known, n: int) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        t = "qx" + "".join(rng.choice(list("jwqxvz"), size=int(rng.integers(3, 6))))
        if t not in known and t not in STOP_WORDS and t not in out:
            out.append(t)
    return out


class TermDraw:
    """Zipf-weighted draw inside a df class, so the head of each class
    repeats and its tail keeps the distinct-term set large."""

    def __init__(self, rng, classes: dict[str, list[str]], absent: list[str],
                 shares: dict[str, float], exponent: float = 0.6):
        self.rng = rng
        self.pools = {**classes, "absent": absent}
        self.names = [c for c in shares if self.pools.get(c)]
        w = np.array([shares[c] for c in self.names], np.float64)
        self.class_p = w / w.sum()
        self.cdfs = {}
        for c in self.names:
            p = np.arange(1, len(self.pools[c]) + 1, dtype=np.float64) ** -exponent
            self.cdfs[c] = np.cumsum(p / p.sum())

    def __call__(self, cls: str | None = None) -> str:
        if cls is None or cls not in self.cdfs:
            cls = self.names[int(self.rng.choice(len(self.names), p=self.class_p))]
        i = int(np.searchsorted(self.cdfs[cls], self.rng.random()))
        return self.pools[cls][min(i, len(self.pools[cls]) - 1)]


def _phrase_from(rng, pieces_by_doc: list[list[str]]) -> tuple[str, list[str], list[int]]:
    """A 2-3 piece window of a real document (it may span a stop word)."""
    while True:
        pcs = pieces_by_doc[int(rng.integers(0, len(pieces_by_doc)))]
        if len(pcs) < 4:
            continue
        n = int(rng.integers(2, 4))
        s = int(rng.integers(0, len(pcs) - n + 1))
        win = pcs[s:s + n]
        if win[0] in STOP_WORDS or win[-1] in STOP_WORDS:
            continue
        terms = [t for t in win if t not in STOP_WORDS]
        offs = [j for j, t in enumerate(win) if t not in STOP_WORDS]
        if len(set(terms)) == len(terms):
            return " ".join(win), terms, offs


def make_query(kind: str, k: int, draw: TermDraw, rng,
               pieces_by_doc: list[list[str]]) -> tuple[dict, dict]:
    if kind == "term":
        t = draw()
        return {"kind": "term", "term": t, "k": k}, {"kind": "term", "terms": [t], "k": k}
    if kind == "match_or":
        terms = list(dict.fromkeys(draw() for _ in range(int(rng.integers(2, 4)))))
        return ({"kind": "match", "text": " ".join(terms), "operator": "or", "k": k},
                {"kind": "match_or", "terms": terms, "k": k})
    if kind == "match_and":
        # two terms of one document, so conjunctions usually match
        while True:
            pcs = [t for t in pieces_by_doc[int(rng.integers(0, len(pieces_by_doc)))]
                   if t not in STOP_WORDS]
            terms = list(dict.fromkeys(pcs[int(j)] for j in rng.integers(0, len(pcs), 2)))
            if len(terms) == 2:
                break
        if rng.random() < 0.2:
            terms[1] = draw("absent")
        return ({"kind": "match", "text": " ".join(terms), "operator": "and", "k": k},
                {"kind": "match_and", "terms": terms, "k": k})
    if kind == "phrase":
        text, terms, offs = _phrase_from(rng, pieces_by_doc)
        if rng.random() < 0.15:
            terms[-1] = draw("absent")
            text = " ".join(text.split()[:-1] + [terms[-1]])
        return ({"kind": "match_phrase", "text": text, "k": k},
                {"kind": "phrase", "terms": terms, "offsets": offs, "k": k})
    if kind == "prefix":
        while True:
            t = draw()
            if len(t) >= 4 and t.isalpha():
                break
        p = t[:3]
        return {"kind": "prefix", "prefix": p, "k": k}, {"kind": "prefix", "prefix": p, "k": k}
    if kind == "bool":
        must, s1, s2, neg = draw("hot"), draw("mid"), draw(), draw("mid")
        should = list(dict.fromkeys([s1, s2]))
        return ({"kind": "bool", "must": [{"kind": "term", "term": must}],
                 "should": [{"kind": "match", "text": " ".join(should)}],
                 "must_not": [{"kind": "term", "term": neg}], "k": k},
                {"kind": "bool", "must": must, "should": should, "must_not": neg, "k": k})
    raise ValueError(kind)


def query_mix(seed: int, n_per_kind: int, draw: TermDraw,
              pieces_by_doc: list[list[str]], kinds=KINDS) -> list[tuple[dict, dict]]:
    """n_per_kind queries of each kind in a seeded order, k cycling 1/10/100."""
    rng = np.random.default_rng([seed, 3])
    draw.rng = rng
    order = np.repeat(np.arange(len(kinds)), n_per_kind)
    rng.shuffle(order)
    return [make_query(kinds[int(c)], TOP_K[j % len(TOP_K)], draw, rng, pieces_by_doc)
            for j, c in enumerate(order)]


def query_terms(spec: dict) -> list[str]:
    if spec["kind"] == "prefix":
        return []
    if spec["kind"] == "bool":
        return [spec["must"], *spec["should"], spec["must_not"]]
    return list(spec["terms"])


def cache_reuse_share(specs: list[dict], cache_terms: int = 256) -> float:
    """Share of queries whose terms were all among the last `cache_terms`
    distinct terms seen before them (an LRU proxy for the searcher's cache)."""
    from collections import OrderedDict

    recent: OrderedDict[str, None] = OrderedDict()
    hits = 0
    for s in specs:
        terms = query_terms(s)
        if terms and all(t in recent for t in terms):
            hits += 1
        for t in terms:
            recent.pop(t, None)
            recent[t] = None
            if len(recent) > cache_terms:
                recent.popitem(last=False)
    return hits / max(1, len(specs))
