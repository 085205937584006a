"""Full-text pipelines over the driver's `documents` table.

Builds (and caches under /tmp) an inverted index over
`{sf_dir}/documents.parquet` with the `simple` analyzer and serves queries in
`exact64` scoring mode — both chosen so DuckDB SQL oracles can re-derive the
exact same token streams (regexp_split) and BM25 values (float64, exact doc
lengths); the Lucene-quantized scoring mode is exercised by the pytest
rank-parity suite instead (tests/test_index_search.py).
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np
import pyarrow as pa

from ..index.build import build_index
from ..utils import round_half_away
from ..search.engine import IndexSearcher

_SEARCHERS: dict[str, IndexSearcher] = {}

K1, B = 1.2, 0.75  # SimilarityProviders.java:275-276 defaults


# package modules whose code decides what an index holds on disk; the
# cached documents index is keyed on their source so a code change rebuilds it
INDEX_WRITERS = ("codec.py", "stages/tokenize.py", "stages/encode.py",
                 "index/build.py")


def source_digest(paths) -> str:
    h = hashlib.sha1()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


@functools.cache
def index_writer_digest() -> str:
    """source_digest of INDEX_WRITERS, computed once per process."""
    pkg = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return source_digest(os.path.join(pkg, rel) for rel in INDEX_WRITERS)


def documents_index_dir(sf_dir: str) -> str:
    """Cache dir of the documents index: keyed on the source file, its mtime
    and the index-writing code."""
    src = os.path.join(sf_dir, "documents.parquet")
    key = f"{src}:{os.path.getmtime(src)}:simple:{index_writer_digest()}"
    return os.path.join("/tmp/esray_cache",
                        f"docidx_{hashlib.sha1(key.encode()).hexdigest()[:16]}")


def documents_index(sf_dir: str) -> str:
    """Build-or-reuse the documents index for one sf dir; returns index dir.

    `source` is indexed as a second field (field-qualified terms + per-field
    norms) so multi_match / per-field query_string clauses are real, and
    `text_2gram` is a shingle SUBFIELD of text (per-field analyzer — the
    search_as_you_type `_2gram` shape)."""
    src = os.path.join(sf_dir, "documents.parquet")
    out = documents_index_dir(sf_dir)
    build_index(
        src,
        out,
        analyzer="simple",
        index_positions=True,
        docs_per_partition=2500,
        num_buckets=16,
        content_column="text",
        meta_columns=("lang", "source", "n_chars"),
        extra_content_columns=("source", ("text_2gram", "text", "shingle2")),
        store_offsets_column="text",  # fvh reads spans from this sidecar
    )
    return out


def documents_searcher(sf_dir: str) -> IndexSearcher:
    key = sf_dir
    if key not in _SEARCHERS:
        idx = documents_index(sf_dir)
        _SEARCHERS[key] = IndexSearcher(idx, score_mode="exact64", k1=K1, b=B,
                                        main_field="text",
                                        field_analyzers={"text_2gram": "shingle2"})
    return _SEARCHERS[key]


_ALT_SEARCHERS: dict[tuple, IndexSearcher] = {}


def alt_searcher(sf_dir: str, sim_name: str, **params) -> IndexSearcher:
    """Searcher over the same documents index with an alternative similarity
    (SimilarityProviders DFR/IB/LMDirichlet/LMJelinekMercer/boolean).
    exact64-style float64 arithmetic so DuckDB oracles can re-derive
    scores value-for-value."""
    key = (sf_dir, sim_name, tuple(sorted(params.items())))
    if key not in _ALT_SEARCHERS:
        from ..search.altsim import make_similarity

        idx = documents_index(sf_dir)
        _ALT_SEARCHERS[key] = IndexSearcher(
            idx, score_mode="exact64", main_field="text",
            similarity=make_similarity(sim_name, **params))
    return _ALT_SEARCHERS[key]


def all_matches_sim(sf_dir: str, query: dict, sim_name: str,
                    round_to: int = 4, **params) -> pa.Table:
    """all_matches under an alternative similarity."""
    s = alt_searcher(sf_dir, sim_name, **params)
    ids, sc = s._eval(query)
    order = np.argsort(ids)
    sc = round_half_away(sc[order].astype(np.float64), round_to)
    return pa.table({"doc_id": pa.array(ids[order]), "score": pa.array(sc)})


def all_matches(sf_dir: str, query: dict, with_score: bool = True,
                round_to: int = 4) -> pa.Table:
    """EVERY matching doc (no top-k truncation -> boundary-free oracle
    compare), ordered by doc_id, scores rounded."""
    s = documents_searcher(sf_dir)
    ids, sc = s._eval(query)
    order = np.argsort(ids)
    ids = ids[order]
    if with_score:
        sc = round_half_away(sc[order].astype(np.float64), round_to)
        return pa.table({"doc_id": pa.array(ids), "score": pa.array(sc)})
    return pa.table({"doc_id": pa.array(ids)})


def topk_matches(sf_dir: str, query: dict, round_to: int = 4) -> pa.Table:
    """Top-k (score desc, doc_id asc) with rounded scores."""
    s = documents_searcher(sf_dir)
    ids, sc = s.search(query)
    return pa.table(
        {
            "doc_id": pa.array(ids.astype(np.int64)),
            "score": pa.array(round_half_away(sc.astype(np.float64), round_to)),
        }
    )


def suggest_terms(sf_dir: str, text: str, max_edits: int = 2, size: int = 5,
                  suggest_mode: str = "always") -> pa.Table:
    """`term` suggester analog (search/suggest/term/TermSuggestionBuilder):
    vocabulary terms within levenshtein distance, ranked (distance asc,
    df desc, term asc). suggest_mode per the reference's SuggestMode:
    'missing' (suggest only when the input term is absent from the index —
    the reference's default), 'popular' (only candidates with df strictly
    above the input term's df), 'always'.

    Candidate cut = length band around the query; distances computed with the
    vectorized batch Levenshtein (no per-term Python DP over the vocab)."""
    from collections import Counter

    from ..search.engine import FIELD_SEP, levenshtein_vec

    s = documents_searcher(sf_dir)
    # main-field vocabulary with global dfs from the segments' dictionaries
    dfs: Counter = Counter()
    for seg in s.segments:
        terms, df = seg.term_dfs()
        for t, d in zip(terms, df):
            t = str(t)
            if FIELD_SEP not in t:
                dfs[t] += int(d)
    df_text = dfs.get(text, 0)
    empty = pa.table({"term": pa.array([], pa.string()),
                      "distance": pa.array([], pa.int32()),
                      "df": pa.array([], pa.int64())})
    if suggest_mode == "missing" and df_text > 0:
        return empty
    vocab = np.array(sorted(dfs), dtype=object)
    lens = np.char.str_len(vocab.astype(str))
    band = np.abs(lens - len(text)) <= max_edits
    cand = vocab[band]
    dists = levenshtein_vec(text, cand)
    keep = (dists > 0) & (dists <= max_edits)
    if suggest_mode == "popular":
        cand_dfs = np.array([dfs[str(t)] for t in cand], dtype=np.int64)
        keep &= cand_dfs > df_text
    rows = sorted(
        ((int(d), -dfs[str(t)], str(t)) for t, d in zip(cand[keep], dists[keep])),
    )[:size]
    return pa.table(
        {
            "term": pa.array([r[2] for r in rows], pa.string()),
            "distance": pa.array([r[0] for r in rows], pa.int32()),
            "df": pa.array([-r[1] for r in rows], pa.int64()),
        }
    )


def highlight(sf_dir: str, query_text: str, k: int = 5, frag_chars: int = 60) -> pa.Table:
    """plain-highlighter analog (search/fetch/subphase/highlight/): top-k
    match docs with the first query-term occurrence wrapped in <em> tags."""
    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "match", "text": query_text, "k": k})
    if ids.size == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "score": pa.array([], pa.float64()),
                         "highlight": pa.array([], pa.string())})
    terms = set(s.analyzer(query_text))
    # fetch phase: row-group-pruned point reads for the k hits only
    from ..sources.reader import fetch_rows_by_doc_id

    src = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                               ids, columns=["doc_id", "text"])
    all_ids = src["doc_id"].to_numpy()
    idx = np.searchsorted(all_ids, ids)
    texts = [src["text"][int(i)].as_py() for i in idx]
    frags = []
    for text in texts:
        words = text.split()
        pos = next((i for i, w in enumerate(words) if w.lower() in terms), 0)
        lo = max(0, pos - 4)
        snippet = " ".join(
            f"<em>{w}</em>" if w.lower() in terms else w for w in words[lo : lo + 10]
        )
        frags.append(snippet[:frag_chars * 2])
    return pa.table(
        {
            "doc_id": pa.array(ids.astype(np.int64)),
            "score": pa.array(round_half_away(sc.astype(np.float64), 4)),
            "highlight": pa.array(frags, pa.string()),
        }
    )


def highlight_with_options(sf_dir: str, term: str = "merge", k: int = 3,
                           pre_tag: str = "<b>", post_tag: str = "</b>",
                           fragment_size: int = 8,
                           number_of_fragments: int = 2) -> pa.Table:
    """plain-highlighter OPTIONS (HighlightBuilder: pre_tags/post_tags,
    fragment_size, number_of_fragments): every word-boundary occurrence of
    the term wraps in the custom tags; the wrapped text splits into
    fragment_size-word chunks and the first number_of_fragments chunks
    containing a hit join with ' ... ' (the fragmenter analog, specified
    word-wise so it is exactly reproducible in SQL)."""
    import re

    from ..sources.reader import fetch_rows_by_doc_id

    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "term", "term": term, "k": k})
    if ids.size == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_matches": pa.array([], pa.int64()),
                         "highlight": pa.array([], pa.string())})
    src = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                               ids, columns=["doc_id", "text"])
    all_ids = src["doc_id"].to_numpy()
    idx = np.searchsorted(all_ids, ids)
    rx = re.compile(rf"\b{re.escape(term)}\b")
    n_matches, frags = [], []
    for j in idx:
        text = src["text"][int(j)].as_py()
        wrapped = rx.sub(f"{pre_tag}{term}{post_tag}", text)
        words = wrapped.split(" ")
        chunks = [" ".join(words[i:i + fragment_size])
                  for i in range(0, len(words), fragment_size)]
        hits = [c for c in chunks if pre_tag in c][:number_of_fragments]
        n_matches.append(len(rx.findall(text)))
        frags.append(" ... ".join(hits))
    return pa.table({
        "doc_id": pa.array(ids.astype(np.int64)),
        "n_matches": pa.array(np.asarray(n_matches, np.int64)),
        "highlight": pa.array(frags, pa.string()),
    })


def highlight_fvh(sf_dir: str, term: str = "data", k: int = 5) -> pa.Table:
    """fvh-style highlighter (FastVectorHighlighter.java): hit positions
    come from the INDEX's stored positional postings and position->char
    spans come from the index's stored OFFSETS sidecar (term-vector
    `with_positions_offsets` — Lucene FieldType.storeTermVectorOffsets;
    derived once at build time by build_index(store_offsets_column=...)).
    The fetch phase is two pruned point reads (text + offsets for the k
    hit docs); the doc is never re-searched or re-tokenized. Falls back
    to a fetch-time tokenize only for indexes built without the sidecar
    (plain highlighter semantics)."""
    import pyarrow.dataset as pads

    from ..sources.reader import fetch_rows_by_doc_id

    s = documents_searcher(sf_dir)
    ids, sc = s.search({"kind": "term", "term": term, "k": k})
    if ids.size == 0:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_hits": pa.array([], pa.int64()),
                         "highlight": pa.array([], pa.string())})
    tp = s._get_term(term)
    pos_lists = s._positions_for(tp, ids)  # token positions per hit doc
    src = fetch_rows_by_doc_id(os.path.join(sf_dir, "documents.parquet"),
                               ids, columns=["doc_id", "text"])
    all_ids = src["doc_id"].to_numpy()
    idx = np.searchsorted(all_ids, ids)

    off_dir = os.path.join(s.index_dir, "offsets")
    span_map: dict[int, tuple] = {}
    if os.path.exists(os.path.join(off_dir, "_COMMITTED")):
        import pyarrow.compute as pc

        off = pads.dataset(off_dir).to_table(
            filter=pc.field("doc_id").isin([int(i) for i in ids]))
        for did, st, en in zip(off["doc_id"].to_pylist(),
                               off["starts"].to_pylist(),
                               off["ends"].to_pylist()):
            span_map[int(did)] = (st, en)

    def doc_spans(did: int, text: str):
        got = span_map.get(did)
        if got is not None:
            return list(zip(got[0], got[1]))
        # no sidecar: plain-highlighter fallback (fetch-time tokenize)
        import re

        return [m.span() for m in re.finditer(r"[a-z0-9]+", text.lower())]

    out_hl, out_hits = [], []
    for did, j, positions in zip(ids, idx, pos_lists):
        text = src["text"][int(j)].as_py()
        spans = doc_spans(int(did), text)
        chars = list(text)
        for p in sorted((int(p) for p in positions), reverse=True):
            if p < len(spans):
                a, b = spans[p]
                chars[a:b] = list("<em>" + text[a:b] + "</em>")
        out_hl.append("".join(chars))
        out_hits.append(int(len(positions)))
    return pa.table({
        "doc_id": pa.array(ids.astype(np.int64)),
        "n_hits": pa.array(out_hits, pa.int64()),
        "highlighted": pa.array(out_hl, pa.string()),
    })
