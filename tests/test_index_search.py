"""End-to-end: build index on the synthetic corpus, verify rank parity vs the
independent brute-force oracle (SURVEY.md §5d), sha256 invariant (§5e), and
checkpoint/resume (§5f)."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.manifest import committed_segments, live_segments
from elasticsearch_ray.search.engine import IndexSearcher
from elasticsearch_ray.sources.corpus import write_corpus
from elasticsearch_ray.sources.queries import reference_queries
from tests.oracle_bm25 import BruteForceBM25

N_DOCS = 1200


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(d, N_DOCS, rows_per_file=1000, row_group_size=200, use_ray=True)
    return d


@pytest.fixture(scope="module")
def index_dir(corpus_dir, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("index"))
    build_index(corpus_dir, d, docs_per_partition=500, num_buckets=8, salt_chunks=4)
    return d


@pytest.fixture(scope="module")
def oracle(corpus_dir):
    t = pads.dataset(corpus_dir).to_table(columns=["content"])
    docs = [(i, c) for i, c in enumerate(t["content"].to_pylist())]
    return BruteForceBM25(docs, analyzer="code")


@pytest.fixture(scope="module")
def searcher(index_dir):
    return IndexSearcher(index_dir)


def test_stats_match_oracle(searcher, oracle):
    assert searcher.n_docs == oracle.n_docs == N_DOCS
    assert searcher.sum_doc_len == oracle.sum_len
    assert abs(searcher.avgdl - oracle.avgdl) < 1e-9


def test_global_df_matches(searcher, oracle):
    for term in ["def", "return", "scan", "query"]:
        assert searcher.global_df(term) == len(oracle.tf.get(term, {})), term


def test_rank_parity_reference_query_set(searcher, oracle):
    """Engine top-k docIDs and scores rank-identical to the brute-force
    oracle on every reference query."""
    for q in reference_queries():
        ids, scores = searcher.search(q)
        o_ids, o_scores = oracle.search(q)
        assert list(ids) == o_ids, f"doc order mismatch for {q}"
        np.testing.assert_allclose(scores, o_scores, rtol=1e-6, atol=1e-7,
                                   err_msg=str(q))


def test_sha256_invariant(index_dir, corpus_dir):
    """Per-row content sha256 equality between index docmeta and source
    (BASELINE.json input_hint invariant)."""
    src = pads.dataset(corpus_dir).to_table(columns=["content"])
    want = [hashlib.sha256(c.encode()).hexdigest() for c in src["content"].to_pylist()]
    metas = []
    for sid in committed_segments(index_dir):
        metas.append(pads.dataset(os.path.join(index_dir, sid, "docmeta")).to_table())
    import pyarrow as pa

    meta = pa.concat_tables(metas)
    order = np.argsort(meta["doc_id"].to_numpy())
    got = np.asarray(meta["sha256"])[order]
    assert list(got) == want


def test_resume_after_partial_build(corpus_dir, index_dir, tmp_path):
    """Kill mid-build (after 1st partition), resume, final index equivalent."""
    d2 = str(tmp_path / "idx2")

    class Boom(RuntimeError):
        pass

    import elasticsearch_ray.index.build as B

    orig = B.commit_segment
    calls = {"n": 0}

    def bomb(out_dir, seg_id, manifest):
        calls["n"] += 1
        res = orig(out_dir, seg_id, manifest)
        if calls["n"] == 1:
            raise Boom()
        return res

    B.commit_segment = bomb
    try:
        with pytest.raises(Boom):
            build_index(corpus_dir, d2, docs_per_partition=500, num_buckets=8, salt_chunks=4)
    finally:
        B.commit_segment = orig
    assert len(committed_segments(d2)) == 1
    # resume
    build_index(corpus_dir, d2, docs_per_partition=500, num_buckets=8, salt_chunks=4)
    a, b = committed_segments(index_dir), committed_segments(d2)
    assert list(a) == list(b)
    for sid in a:
        assert a[sid].doc_count == b[sid].doc_count
        assert a[sid].sum_doc_len == b[sid].sum_doc_len
        assert a[sid].term_count == b[sid].term_count
        # postings logically identical
        pa_t = pads.dataset(os.path.join(index_dir, sid, "postings")).to_table()
        pb_t = pads.dataset(os.path.join(d2, sid, "postings")).to_table()
        ka = sorted(zip(pa_t["term"].to_pylist(), pa_t["chunk"].to_pylist(),
                        pa_t["doc_bytes"].to_pylist(), pa_t["tf_bytes"].to_pylist()))
        kb = sorted(zip(pb_t["term"].to_pylist(), pb_t["chunk"].to_pylist(),
                        pb_t["doc_bytes"].to_pylist(), pb_t["tf_bytes"].to_pylist()))
        assert ka == kb


def test_merge_lineage_live_segments(index_dir):
    segs = committed_segments(index_dir)
    live = live_segments(segs)
    assert list(live) == list(segs)  # nothing merged yet
    for sid, m in segs.items():
        assert m.fragments, "lineage must record input fragments"
        assert m.doc_count > 0 and m.term_count > 0


def test_phrase_search_equals_exhaustive(corpus_dir, index_dir, searcher,
                                         tmp_path):
    """search() sends every exact phrase, field-scoped or under an
    alternative similarity too, to _phrase_topk; it must be rank-identical
    to the exhaustive _topk(*_eval(q), k). chunk=4 forces the bounded
    collector on these small corpora."""
    from elasticsearch_ray.search.altsim import make_similarity

    texts = ([q["text"] for q in reference_queries()
              if q["kind"] == "match_phrase" and not q.get("slop")]
             + ["def scan", "return query def"])
    alt = IndexSearcher(index_dir, score_mode="exact64",
                        similarity=make_similarity("LMDirichlet", mu=2000.0))
    path_idx = str(tmp_path / "path_index")
    build_index(corpus_dir, path_idx, num_buckets=4,
                extra_content_columns=("path",))
    by_path = IndexSearcher(path_idx)
    cases = [(s, None, t) for s in (searcher, alt) for t in texts]
    cases += [(by_path, "path", t) for t in ("src dir1", "dir2 mod2")]
    hits = dict.fromkeys((searcher, alt, by_path), 0)
    for s, field, text in cases:
        for k in (1, 5, 10):
            q = {"kind": "match_phrase", "text": text, "field": field, "k": k}
            e_ids, e_sc = s._topk(*s._eval(q), k)
            hits[s] += e_ids.size
            for ids, sc in (s.search(q),
                            s._phrase_topk(text, k, field=field, chunk=4)):
                assert list(ids) == list(e_ids), q
                np.testing.assert_array_equal(sc, e_sc, err_msg=str(q))
    assert all(hits.values()), hits


def test_lazy_segment_mode_identical(index_dir, searcher):
    """Disk-resident term dictionary (lazy segments) must be rank-identical
    to eager residency, for term, match, phrase and prefix queries."""
    lazy = IndexSearcher(index_dir, lazy=True)
    assert lazy.lazy and not searcher.lazy
    qs = reference_queries()[:15] + [
        q for q in reference_queries() if q["kind"] in ("match_phrase", "prefix")]
    qs += [{"kind": "match_phrase", "text": "def tree", "slop": 2, "k": 10},
           {"kind": "match_phrase", "text": "return query def", "k": 10},
           {"kind": "prefix", "prefix": "d", "k": 50}]
    for q in qs:
        a_ids, a_sc = searcher.search(q)
        b_ids, b_sc = lazy.search(q)
        assert list(a_ids) == list(b_ids), q
        np.testing.assert_array_equal(a_sc, b_sc)



def _per_row_postings(index_dir):
    """term -> its postings rows decoded one row at a time by the codec's
    own per-row functions, rows in doc order: a list of (doc_ids, tfs,
    positions) with positions = one absolute position array per doc."""
    from elasticsearch_ray.codec import (EncodedPostings, decode_positions,
                                         varbyte_decode)

    by_term: dict[str, list] = {}
    for sid in live_segments(committed_segments(index_dir)):
        t = pads.dataset(os.path.join(index_dir, sid, "postings")).to_table()
        for r in t.to_pylist():
            e = EncodedPostings(
                df=r["df"], sum_tf=r["sum_tf"], doc_bytes=r["doc_bytes"],
                tf_bytes=r["tf_bytes"], pos_bytes=r["pos_bytes"] or b"",
                **{c: np.asarray(r[c]) for c in (
                    "skip_last_doc", "skip_doc_off", "skip_tf_off",
                    "skip_pos_off", "skip_max_tf", "skip_min_norm")})
            ids = np.cumsum(varbyte_decode(e.doc_bytes, e.df).astype(np.int64)) - 1
            tfs = varbyte_decode(e.tf_bytes, e.df).astype(np.int64)
            by_term.setdefault(r["term"], []).append(
                (ids, tfs, decode_positions(e, tfs)))
    for rows in by_term.values():
        rows.sort(key=lambda row: int(row[0][0]))
    return by_term


@pytest.mark.parametrize("lazy", [False, True])
def test_batched_decode_equals_per_row_decode(index_dir, lazy):
    """Every term's gathered postings (one varbyte call per stream) equal
    the per-row decode: doc ids, tfs and the positions, both
    merged and row by row, on the salted multi-segment index."""
    s = IndexSearcher(index_dir, lazy=lazy)
    by_term = _per_row_postings(index_dir)
    # salted hot terms have more rows than there are segments
    assert max(len(rows) for rows in by_term.values()) > len(s.segments)
    for term, rows in by_term.items():
        tp = s._get_term_key(term)
        assert len(tp.rows) == len(rows), term
        np.testing.assert_array_equal(tp.doc_ids, np.concatenate([r[0] for r in rows]))
        np.testing.assert_array_equal(tp.tfs, np.concatenate([r[1] for r in rows]))
        positions = [p for r in rows for p in r[2]]
        if not positions:
            continue
        ids, pos, starts, cuts = s._merged_positions(tp)
        np.testing.assert_array_equal(ids, tp.doc_ids)
        np.testing.assert_array_equal(cuts - starts, [p.size for p in positions])
        np.testing.assert_array_equal(pos, np.concatenate(positions))
        for ri, r in enumerate(rows):
            ids, pos, starts, cuts = tp.decode_positions(ri)
            np.testing.assert_array_equal(ids, r[0])
            np.testing.assert_array_equal(pos, np.concatenate(r[2]))


def test_lookup_counters(index_dir):
    """A cold salted term gathers one postings row per (segment, chunk); the
    repeated query hits the term cache and gathers and decodes nothing."""
    s = IndexSearcher(index_dir)
    chunks: dict[str, set] = {}
    for sid in live_segments(committed_segments(index_dir)):
        t = pads.dataset(os.path.join(index_dir, sid, "postings")).to_table(
            columns=["term", "chunk"])
        for term, chunk in zip(t["term"].to_pylist(), t["chunk"].to_pylist()):
            chunks.setdefault(term, set()).add((sid, chunk))
    hot = max(sorted(chunks), key=lambda t: len(chunks[t]))
    assert len(chunks[hot]) > len(s.segments)  # salted
    q = {"kind": "term", "term": hot, "k": 10}
    s.search(q)
    cold = dict(s.counters)
    assert cold["term_cache_misses"] == 1
    assert cold["postings_rows"] == len(chunks[hot])
    assert cold["varbyte_decodes"] >= 1
    s.search(q)
    warm = dict(s.counters)
    assert warm["term_cache_hits"] >= 1
    for name in ("term_cache_misses", "postings_rows", "varbyte_decodes"):
        assert warm[name] == cold[name], name


def test_phrase_topk_equals_exhaustive(searcher):
    """Impact-bounded phrase collector (_phrase_topk) must be rank-identical
    to exhaustive _phrase + _topk. chunk=4 forces the bounded path even on
    the small module corpus; chunk default exercises the small-cand
    passthrough; k=0 (size=0) returns no hits on both paths."""
    phrase_qs = [q for q in reference_queries()
                 if q["kind"] == "match_phrase" and not q.get("slop")]
    texts = [q["text"] for q in phrase_qs] + ["def scan", "return query def"]
    for text in texts:
        for k in (0, 1, 5, 10, 100):
            e_ids, e_sc = searcher._topk(*searcher._phrase(text), k)
            for chunk in (4, 64, 4096):
                b_ids, b_sc = searcher._phrase_topk(text, k, chunk=chunk)
                assert list(b_ids) == list(e_ids), (text, k, chunk)
                np.testing.assert_array_equal(b_sc, e_sc,
                                              err_msg=f"{text} k={k}")


def test_completion_suggester_weighted_ordering():
    from elasticsearch_ray.search.suggest import CompletionSuggester

    sug = CompletionSuggester([
        ("data", 10), ("database", 50), ("dataset", 50), ("datum", 3),
        ("merge", 99),
    ])
    out = sug.suggest("dat", size=3)
    # weight desc, input asc tie-break (database before dataset at 50)
    assert out["input"].tolist() == ["database", "dataset", "data"]
    assert out["weight"].tolist() == [50, 50, 10]


def test_completion_suggester_fuzzy_prefix():
    from elasticsearch_ray.search.suggest import CompletionSuggester

    sug = CompletionSuggester([("data", 5), ("dwta", 7), ("xyz", 9)])
    out = sug.suggest("dat", size=5, fuzziness=1)
    assert out["input"].tolist() == ["dwta", "data"]  # dw~dat dist 1
    out0 = sug.suggest("dat", size=5)
    assert out0["input"].tolist() == ["data"]


def test_completion_suggester_contexts():
    from elasticsearch_ray.search.suggest import CompletionSuggester

    sug = CompletionSuggester([
        ("data", 5, {"en"}), ("dataset", 9, {"de"}), ("datum", 2, {"en", "de"}),
    ])
    assert sug.suggest("dat", context="en")["input"].tolist() == ["data", "datum"]
    assert sug.suggest("dat", context="de")["input"].tolist() == ["dataset", "datum"]
    assert sug.suggest("dat")["input"].tolist() == ["dataset", "data", "datum"]
