"""The task-shuffle build path must produce logically identical segments to
the Dataset-groupby path (same tokenize/encode kernels, different exchange)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.dataset as pads
import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.fast_build import build_index_tasks
from elasticsearch_ray.index.manifest import committed_segments
from elasticsearch_ray.search.engine import IndexSearcher
from elasticsearch_ray.sources.corpus import write_corpus
from elasticsearch_ray.sources.queries import reference_queries


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(d, 800, rows_per_file=1000, row_group_size=100, use_ray=True)
    return d


def _postings_key_set(index_dir):
    out = {}
    for sid in committed_segments(index_dir):
        t = pads.dataset(os.path.join(index_dir, sid, "postings")).to_table()
        rows = sorted(zip(t["term"].to_pylist(), t["chunk"].to_pylist(),
                          t["doc_bytes"].to_pylist(), t["tf_bytes"].to_pylist(),
                          t["pos_bytes"].to_pylist()))
        out[sid] = rows
    return out


def test_task_build_equals_dataset_build(corpus_dir, tmp_path):
    hot = frozenset(["def", "return", "int", "get"])
    kw = dict(docs_per_partition=300, num_buckets=8, salt_chunks=4, hot_terms=hot)
    d1, d2 = str(tmp_path / "ds"), str(tmp_path / "tasks")
    build_index(corpus_dir, d1, **kw)
    build_index_tasks(corpus_dir, d2, **kw)

    a, b = _postings_key_set(d1), _postings_key_set(d2)
    assert list(a) == list(b)
    for sid in a:
        assert a[sid] == b[sid], f"postings differ in {sid}"

    ma, mb = committed_segments(d1), committed_segments(d2)
    for sid in ma:
        assert ma[sid].doc_count == mb[sid].doc_count
        assert ma[sid].sum_doc_len == mb[sid].sum_doc_len
        assert ma[sid].term_count == mb[sid].term_count
        assert ma[sid].doc_id_min == mb[sid].doc_id_min
        assert ma[sid].doc_id_max == mb[sid].doc_id_max

    sa, sb = IndexSearcher(d1), IndexSearcher(d2)
    for q in reference_queries()[:12]:
        ia, ca = sa.search(q)
        ib, cb = sb.search(q)
        assert list(ia) == list(ib)
        np.testing.assert_array_equal(ca, cb)


def test_single_bucket_build_equals_multi_bucket(corpus_dir, tmp_path):
    """num_buckets=1 (`cli build --num-buckets 1`) builds the same index as
    an 8-bucket build: its tokenize task's single object must be the table."""
    kw = dict(docs_per_partition=300, salt_chunks=4, hot_terms=frozenset(["def"]))
    d1, d8 = str(tmp_path / "b1"), str(tmp_path / "b8")
    s1 = build_index_tasks(corpus_dir, d1, num_buckets=1, **kw)
    s8 = build_index_tasks(corpus_dir, d8, num_buckets=8, **kw)
    assert (s1.doc_count, s1.sum_doc_len) == (s8.doc_count, s8.sum_doc_len)
    a, b = IndexSearcher(d1), IndexSearcher(d8)
    queries = [{"kind": "term", "term": "def", "k": 1000},
               {"kind": "term", "term": "return", "k": 1000},
               {"kind": "match_phrase", "text": "def return", "k": 1000}]
    for q in queries + reference_queries():
        ia, ca = a.search(q)
        ib, cb = b.search(q)
        assert list(ia) == list(ib), q
        np.testing.assert_array_equal(ca, cb)


def test_task_build_resume(corpus_dir, tmp_path):
    hot = frozenset(["def"])
    kw = dict(docs_per_partition=300, num_buckets=4, hot_terms=hot)
    d = str(tmp_path / "resume")
    build_index_tasks(corpus_dir, d, **kw)
    segs = committed_segments(d)
    assert len(segs) == 3  # 800 docs / 300
    # drop one segment, rebuild -> only that one is rebuilt, results identical
    import shutil

    victim = list(segs)[1]
    before = _postings_key_set(d)
    shutil.rmtree(os.path.join(d, victim))
    build_index_tasks(corpus_dir, d, **kw)
    after = _postings_key_set(d)
    assert before == after


def test_build_without_positions(corpus_dir, tmp_path):
    """index_options=freqs (no positions): term/match/bool work, phrase
    degrades to no-match (positions absent), postings are smaller."""
    import os

    d = str(tmp_path / "nopos")
    build_index_tasks(corpus_dir, d, docs_per_partition=400, num_buckets=4,
                      index_positions=False, hot_terms=frozenset(["def"]))
    s = IndexSearcher(d)
    ids, sc = s.search({"kind": "match", "text": "def return", "k": 5})
    assert len(ids) > 0
    p_ids, _ = s.search({"kind": "match_phrase", "text": "def return", "k": 5})
    assert len(p_ids) == 0  # documented degradation without positions
    from elasticsearch_ray.index.manifest import committed_segments

    def psize(idx):
        import glob
        return sum(os.path.getsize(f) for f in
                   glob.glob(os.path.join(idx, "seg_*", "postings", "*.parquet")))

    d2 = str(tmp_path / "withpos")
    build_index_tasks(corpus_dir, d2, docs_per_partition=400, num_buckets=4,
                      index_positions=True, hot_terms=frozenset(["def"]))
    assert psize(d) < psize(d2)


def test_fuzz_random_killpoint_resume(corpus_dir, tmp_path, ray_session):
    """Randomized crash-recovery fuzz: kill the build at a random commit
    (seeded), then additionally drop a random subset of committed segments,
    resume, and require the final postings key-set to be identical to a
    clean build — generalizes the fixed kill-point and single-victim resume
    tests to arbitrary failure states."""
    import shutil

    import elasticsearch_ray.index.fast_build as FB

    hot = frozenset(["def"])
    kw = dict(docs_per_partition=200, num_buckets=4, hot_terms=hot)
    clean = str(tmp_path / "clean")
    build_index_tasks(corpus_dir, clean, **kw)
    want = _postings_key_set(clean)
    n_parts = len(committed_segments(clean))
    assert n_parts == 4  # 800 docs / 200

    rng = np.random.default_rng(29)
    orig = FB.commit_segment
    for trial in range(3):
        kill_at = int(rng.integers(1, n_parts))  # after k-th commit
        d = str(tmp_path / f"fuzz{trial}")

        class Boom(RuntimeError):
            pass

        calls = {"n": 0}

        def bomb(out_dir, seg_id, manifest):
            res = orig(out_dir, seg_id, manifest)
            calls["n"] += 1
            if calls["n"] == kill_at:
                raise Boom()
            return res

        FB.commit_segment = bomb
        try:
            with pytest.raises(Boom):
                build_index_tasks(corpus_dir, d, **kw)
        finally:
            FB.commit_segment = orig
        done = list(committed_segments(d))
        assert len(done) >= kill_at  # commits up to the kill survived
        # corrupt further: drop a random committed segment (if any)
        if done and rng.random() < 0.7:
            shutil.rmtree(os.path.join(d, str(rng.choice(done))))
        build_index_tasks(corpus_dir, d, **kw)  # resume
        assert _postings_key_set(d) == want, f"trial {trial} kill_at={kill_at}"


def test_build_with_null_content(tmp_path, ray_session):
    """A null in the content column indexes as an empty doc (and a null
    extra-field value stays null) instead of crashing the build."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.search.engine import IndexSearcher

    src = str(tmp_path / "nulls.parquet")
    pq.write_table(pa.table({
        "repo": ["r"] * 3,
        "path": ["a.py", "b.py", "c.py"],
        "commit": ["c"] * 3,
        "lang": ["py"] * 3,
        "content": ["alpha beta", None, "alpha"],
    }), src)
    idx = str(tmp_path / "idx")
    build_index(src, idx, analyzer="code", num_buckets=2,
                hot_terms=frozenset())
    s = IndexSearcher(idx)
    ids, _ = s._eval({"kind": "term", "term": "alpha"})
    assert sorted(ids.tolist()) == [0, 2]
    assert s.doc_lens[1] == 0


def test_exchange_width_rule():
    """A bucket never holds more docs than one bucket of a full `cli build`
    default partition (250k docs over 32 buckets); small partitions get one
    bucket per CPU; the width stays within [1, num_buckets]."""
    from elasticsearch_ray.index.fast_build import exchange_width

    assert exchange_width(32, 250_000, 1) == 32
    assert exchange_width(32, 4_000, 1) == 1
    assert exchange_width(32, 4_000, 32) == 32
    for nb in (1, 2, 8, 32, 64):
        for docs in (0, 1, 100, 7_812, 7_813, 100_000, 250_000, 10_000_000):
            for cpus in (1, 4, 32, 256):
                w = exchange_width(nb, docs, cpus)
                assert 1 <= w <= nb
                if nb == 32 and docs <= 250_000:
                    assert docs / w <= 250_000 / 32


@pytest.fixture(scope="module")
def corpus_1500(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus1500"))
    write_corpus(d, 1500, rows_per_file=1000, row_group_size=100, use_ray=True)
    return d


def test_partition_width_follows_cluster(corpus_1500, tmp_path):
    """One 1,500-doc partition on the 4-CPU test cluster uses 4 buckets, not
    32: at most 4 postings files, the same postings as a one-bucket build,
    and the width, tokenize task count and encode time in the build log."""
    import glob
    import json

    kw = dict(docs_per_partition=250_000, hot_terms=frozenset(["def", "return"]))
    d32, d1 = str(tmp_path / "b32"), str(tmp_path / "b1")
    build_index_tasks(corpus_1500, d32, num_buckets=32, **kw)
    build_index_tasks(corpus_1500, d1, num_buckets=1, **kw)
    files = glob.glob(os.path.join(d32, "seg_*", "postings", "*.parquet"))
    assert 1 <= len(files) <= 4
    assert _postings_key_set(d32) == _postings_key_set(d1)

    with open(os.path.join(d32, "build_log.jsonl")) as f:
        (rec,) = [json.loads(line) for line in f]
    assert rec["buckets"] == 4
    assert rec["tokenize_tasks"] == 8  # 15 row groups, 2 per task
    assert rec["encode_s"] > 0


def test_append_after_part_full_partition(tmp_path):
    """A file appended after a partition that was not full is built as its
    own segment instead of being skipped as part of the committed one."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src, idx = tmp_path / "src", str(tmp_path / "idx")
    src.mkdir()
    for fi, marker in enumerate(("fxone", "fxtwo")):
        n = 100
        pq.write_table(pa.table({
            "repo": ["r"] * n, "path": [f"f{fi}_{j}.py" for j in range(n)],
            "commit": ["c"] * n, "lang": ["python"] * n,
            "content": [f"alpha beta {marker} n{j}" for j in range(n)]}),
            str(src / f"part-{fi:05d}.parquet"))
        st = build_index_tasks(str(src), idx, docs_per_partition=250_000)
        assert st.doc_count == 100 * (fi + 1)
        ids, _ = IndexSearcher(idx).search({"kind": "term", "term": marker, "k": 1000})
        assert sorted(ids.tolist()) == list(range(100 * fi, 100 * (fi + 1)))
    assert sorted(committed_segments(idx)) == ["seg_000000000000", "seg_000000000100"]


def test_hot_term_salting_matches_scalar_formula(corpus_dir):
    """The vectorized salting gives every triple the bucket and chunk of the
    scalar term_bucket formula: hot terms keyed by (term, doc_id // range),
    cold terms by term alone."""
    from elasticsearch_ray.sources.reader import plan_fragments
    from elasticsearch_ray.stages.tokenize import TokenizeFragments, term_bucket

    hot = frozenset(["def", "return", "self", "int"])
    nb, cr = 7, 30
    tok = TokenizeFragments(analyzer="code", docmeta_dir=None, hot_terms=hot,
                            num_buckets=nb, chunk_range=cr)
    for f in plan_fragments(corpus_dir)[:3]:
        batch = {k: np.array([v]) for k, v in f.to_dict().items()}
        (t,) = tok(batch)
        terms, docs = t["term"].to_pylist(), t["doc_id"].to_pylist()
        want_chunk = [d // cr if term in hot else 0 for term, d in zip(terms, docs)]
        assert t["chunk"].to_pylist() == want_chunk
        assert t["bucket"].to_pylist() == [
            term_bucket(term, ch, nb) for term, ch in zip(terms, want_chunk)]
        assert len(set(want_chunk)) > 1
