"""Impact-ordered top-k for a single scored term (SURVEY.md §2.5 / §7 step 4).

[Lucene 8.5, public knowledge] Lucene engages WAND when the collector runs in
ScoreMode.TOP_SCORES (reference: search/query/QueryPhase.java:401 with the
top-k collector from search/query/TopDocsCollectorContext.java:213-217): once
the top-k heap is full, its minimum score becomes the *min competitive score*
and whole 128-doc blocks whose impact-derived upper bound can't beat it are
skipped without decoding.

Here that skip serves the one query shape where it pays on this engine: a
single term with a large df (`IndexSearcher.search` routes a term whose
global df is above 4096 here). `term_impact_topk` decodes the term's blocks
in descending order of their upper bound, from the codec's (max_tf,
min_norm_len) block-max metadata, and stops once the k-th score collected
reaches the best bound left. Multi-term disjunctions score exhaustively with
vectorized kernels instead: a block-at-a-time walk over several terms costs
a Python step per block and measured 10-30x slower than exhaustive scoring
on flat impacts (BASELINE.md, round 3). Scoring arithmetic is the exhaustive
path's, so results are rank-identical (tested against it)."""

from __future__ import annotations

import numpy as np


def term_impact_topk(searcher, term: str, k: int, boost: float = 1.0,
                     probe_chunks: tuple[int, ...] = (4, 32)):
    """Impact-ordered top-k for a SINGLE term (the Lucene ImpactsDISI
    shape): decode a few blocks in descending block-max score-bound order;
    stop as soon as the kth collected score >= the best remaining bound.

    If the probe doesn't close the bound (flat impacts — nothing
    prunable), fall back to the exhaustive vectorized scorer rather than
    keep paying per-block Python decode overhead, which is what makes
    block-at-a-time WAND 30x slower than exhaustive on flat corpora
    (measured at 400k docs: term 'def' WAND 290 ms vs exhaustive 9 ms,
    BASELINE.md round-3). Probe cost on fallback is ~40 block decodes.
    Early stop is tie-safe: block_upper_bound carries a strict relative
    pad, so any undecoded doc scores strictly below its block's bound."""
    if k <= 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    bm25 = searcher.bm25
    f32 = bm25.mode == "lucene"
    empty = (np.empty(0, np.int64), np.empty(0, np.float32 if f32 else np.float64))
    tp = searcher._get_term(term)
    if tp is None:
        return empty
    w = bm25.weight(searcher._df(tp), searcher.n_docs, boost)
    ubs = bm25.block_upper_bound(tp.block_max_tf, tp.block_min_norm,
                                 searcher.avgdl, w)
    order = np.argsort(-ubs, kind="stable")
    parts_i: list[np.ndarray] = []
    parts_s: list[np.ndarray] = []
    n_collected = 0
    kth = -np.inf
    i = 0
    for chunk in probe_chunks:
        take = order[i:i + chunk]
        if not take.size:
            break
        if n_collected >= k and kth >= ubs[take[0]]:
            break  # best remaining block bound can't beat the kth score
        for b in take:
            ids, tfs = tp.decode_block(int(b))
            if f32:
                sc = bm25.score_tf(tfs, searcher.norm_bytes[ids], None,
                                   searcher.avgdl, w, searcher._norm_cache32)
            else:
                sc = bm25.score_tf(tfs, None, searcher.doc_lens[ids],
                                   searcher.avgdl, w)
            parts_i.append(ids)
            parts_s.append(sc)
            n_collected += ids.size
        i += chunk
        if n_collected >= k:
            s_all = np.concatenate(parts_s)
            s_cmp = s_all.astype(np.float32) if f32 else s_all
            kth = float(np.partition(s_cmp, s_cmp.size - k)[s_cmp.size - k])
    done = i >= order.size or (n_collected >= k and kth >= ubs[order[i]])
    if done:
        if not parts_i:
            return empty
        return searcher._topk(np.concatenate(parts_i),
                              np.concatenate(parts_s), k)
    # flat impacts: the exhaustive full-postings decode is vectorized and
    # cached on TermPostings — strictly cheaper than per-block decoding
    # the remaining blocks one at a time
    ids, sc = searcher._disjunction([term], boost)
    return searcher._topk(ids, sc, k)
