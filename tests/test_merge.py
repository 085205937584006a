"""Merge correctness (SURVEY.md §5c): search results over merged segments are
identical to results over the originals; force_merge + gc leave one live
segment; merged manifests carry lineage."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow.dataset as pads
import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.manifest import committed_segments, live_segments
from elasticsearch_ray.index.merge import force_merge, gc_merged, merge_segments
from elasticsearch_ray.search.engine import IndexSearcher
from elasticsearch_ray.sources.corpus import write_corpus
from elasticsearch_ray.sources.queries import reference_queries


@pytest.fixture(scope="module")
def dirs(tmp_path_factory):
    c = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(c, 1000, rows_per_file=1000, row_group_size=100, use_ray=True)
    i = str(tmp_path_factory.mktemp("index"))
    build_index(c, i, docs_per_partition=250, num_buckets=8, salt_chunks=4)
    return c, i


def _all_results(index_dir):
    s = IndexSearcher(index_dir)
    out = {}
    for q in reference_queries():
        ids, sc = s.search(q)
        out[q["qid"]] = (list(ids), [float(x) for x in sc])
    return out, s


def test_merge_preserves_results(dirs, tmp_path):
    _, index_dir = dirs
    before, s0 = _all_results(index_dir)
    n_before = len(live_segments(committed_segments(index_dir)))
    assert n_before == 4

    d2 = str(tmp_path / "copy")
    shutil.copytree(index_dir, d2)
    new_id = merge_segments(d2, max_merge_at_once=2)
    assert new_id is not None
    live = live_segments(committed_segments(d2))
    assert n_before - 1 == len(live)
    assert new_id in live

    after, s1 = _all_results(d2)
    assert before == after
    assert s0.n_docs == s1.n_docs and s0.sum_doc_len == s1.sum_doc_len

    # merge everything down to one segment, gc the leftovers
    force_merge(d2, max_num_segments=1)
    live = live_segments(committed_segments(d2))
    assert len(live) == 1
    m = next(iter(live.values()))
    assert m.merged_from, "merged manifest must record lineage"
    assert len(m.fragments) == 10  # full input lineage union
    removed = gc_merged(d2)
    assert removed
    final, _ = _all_results(d2)
    assert before == final


def test_searcher_stage_dataset(dirs):
    """Actor-pool query serving over a queries dataset."""
    from elasticsearch_ray.search.stage import search_dataset

    _, index_dir = dirs
    qs = reference_queries()[:8]
    res = search_dataset(index_dir, qs, concurrency=2).to_pandas()
    s = IndexSearcher(index_dir)
    for q in qs:
        ids, sc = s.search(q)
        got = res[res.qid == q["qid"]].sort_values("rank")
        assert list(got.doc_id) == list(ids), q
        np.testing.assert_allclose(got.score.to_numpy(), sc.astype(np.float64), rtol=1e-7)


def test_searcher_stage_batch_rows_and_zero_hit_schema(dirs):
    """One SearcherStage batch: per-query rows in rank order with the fetched
    columns aligned; a zero-hit batch keeps the same schema."""
    import json

    import pyarrow as pa
    import pyarrow.compute as pc

    from elasticsearch_ray.search.stage import SearcherStage

    _, index_dir = dirs
    stage = SearcherStage(index_dir, fetch_columns=["path", "doc_id"])
    qs = reference_queries()[:6]

    def batch(queries):
        return pa.table({"qid": pa.array([q["qid"] for q in queries], pa.int64()),
                         "query": [json.dumps(q) for q in queries]})

    out = stage(batch(qs))
    empty = stage(batch([{"qid": 99, "kind": "term", "term": "zzznotaterm"}]))
    assert len(empty) == 0 and empty.schema == out.schema
    assert out.schema.names == ["qid", "rank", "doc_id", "score", "path"]
    paths = stage.searcher.fetch(out["doc_id"].to_numpy(), ["path"])["path"]
    assert out["path"].to_pylist() == paths.to_pylist()
    for q in qs:
        ids, sc = stage.searcher.search(q)
        rows = out.filter(pc.equal(out["qid"], q["qid"]))
        assert rows["rank"].to_pylist() == list(range(1, len(ids) + 1))
        assert rows["doc_id"].to_pylist() == [int(i) for i in ids]
        assert rows["score"].to_pylist() == [float(s) for s in sc]


def test_snapshot_restore(dirs, tmp_path):
    """snapshot/restore analog (§2.1): the segment-dir layout IS the
    snapshot — copy the index directory wholesale, restored searcher is
    identical."""
    import shutil

    _, index_dir = dirs
    snap = str(tmp_path / "snapshot")
    shutil.copytree(index_dir, snap)
    a = IndexSearcher(index_dir)
    b = IndexSearcher(snap)
    for q in reference_queries()[:10]:
        ai, asc = a.search(q)
        bi, bsc = b.search(q)
        assert list(ai) == list(bi)
        np.testing.assert_array_equal(asc, bsc)


def test_snapshot_repository_incremental(dirs, tmp_path):
    """Incremental snapshot repo: second snapshot copies only new segments;
    restore is search-identical; delete GCs unreferenced segments."""
    from elasticsearch_ray.index.snapshot import (
        create_snapshot,
        delete_snapshot,
        list_snapshots,
        restore_snapshot,
    )
    from elasticsearch_ray.search.engine import IndexSearcher

    _, idx = dirs
    repo = str(tmp_path / "repo")
    m1 = create_snapshot(idx, repo, "snap1")
    assert m1["copied"] == m1["segments"]  # first snapshot copies everything
    m2 = create_snapshot(idx, repo, "snap2")
    assert m2["copied"] == []  # unchanged index -> fully incremental
    assert [s["name"] for s in list_snapshots(repo)] == ["snap1", "snap2"]

    dest = str(tmp_path / "restored")
    restore_snapshot(repo, "snap1", dest)
    q = {"kind": "match", "text": "data query", "k": 10}
    a = IndexSearcher(idx).search(q)
    b = IndexSearcher(dest).search(q)
    assert list(a[0]) == list(b[0])
    assert [float(x) for x in a[1]] == [float(x) for x in b[1]]

    assert delete_snapshot(repo, "snap1") == []  # snap2 still references all
    removed = delete_snapshot(repo, "snap2")
    assert sorted(removed) == sorted(m1["segments"])  # GC after last ref


def test_url_repository_read_only(dirs, tmp_path):
    """repository-url: file:// read-only view — list/restore identical to the
    backing repo, create/delete refused."""
    import pytest

    from elasticsearch_ray.index.snapshot import (
        ReadOnlyRepository,
        create_snapshot,
    )
    from elasticsearch_ray.search.engine import IndexSearcher

    _, idx = dirs
    repo = str(tmp_path / "repo")
    create_snapshot(idx, repo, "snap1")
    url = ReadOnlyRepository(f"file://{repo}")
    assert [s["name"] for s in url.list()] == ["snap1"]
    dest = str(tmp_path / "restored_url")
    url.restore("snap1", dest)
    q = {"kind": "match", "text": "data query", "k": 10}
    assert list(IndexSearcher(idx).search(q)[0]) == \
        list(IndexSearcher(dest).search(q)[0])
    with pytest.raises(PermissionError):
        url.create(idx, "snap2")
    with pytest.raises(PermissionError):
        url.delete("snap1")
    with pytest.raises(ValueError):
        ReadOnlyRepository("s3://bucket/path")


def test_merge_rejects_mixed_flags(dirs, tmp_path):
    """Segments with different analyzer/index_positions settings must not
    merge (the codec would mis-attribute position streams)."""
    import json

    import pytest

    from elasticsearch_ray.index.merge import merge_segments
    from elasticsearch_ray.index.reshape import clone_index, split_index

    _, idx = dirs
    work = str(tmp_path / "mixed")
    split_index(idx, work, parts=2)
    # forge one manifest's flag
    import os

    from elasticsearch_ray.index.manifest import committed_segments, live_segments

    live = live_segments(committed_segments(work))
    sid = sorted(live)[0]
    mp = os.path.join(work, sid, "manifest.json")
    m = json.load(open(mp))
    m["index_positions"] = not m["index_positions"]
    json.dump(m, open(mp, "w"))
    with pytest.raises(ValueError, match="mixed analyzer/index_positions"):
        merge_segments(work, sorted(live))


def test_merge_max_merged_docs_gate(dirs, tmp_path):
    """max_merged_docs (MergePolicyConfig max-merged-segment analog): when
    the widest window exceeds the budget, a narrower one merges instead;
    when every window exceeds it, nothing merges."""
    from elasticsearch_ray.index.manifest import committed_segments, live_segments
    from elasticsearch_ray.index.merge import merge_segments
    from elasticsearch_ray.index.reshape import split_index

    _, idx = dirs
    work = str(tmp_path / "gated")
    split_index(idx, work, parts=4)
    live = live_segments(committed_segments(work))
    total = sum(m.doc_count for m in live.values())
    assert merge_segments(work, max_merged_docs=0) is None
    # budget that admits pairs but not the full window
    pair_budget = total - 1
    new = merge_segments(work, max_merged_docs=pair_budget)
    assert new is not None
    merged = committed_segments(work)[new]
    assert merged.doc_count <= pair_budget


def test_shrink_resume_skips_merged_groups(dirs, tmp_path):
    """Re-running shrink_index over a completed shrink is a no-op instead of
    a KeyError (resume contract)."""
    from elasticsearch_ray.index.manifest import committed_segments, live_segments
    from elasticsearch_ray.index.reshape import shrink_index, split_index
    from elasticsearch_ray.search.engine import IndexSearcher

    _, idx = dirs
    work = str(tmp_path / "shr")
    split_index(idx, work, parts=4)
    n_live = len(live_segments(committed_segments(work)))
    dst = str(tmp_path / "shr_out")
    first = shrink_index(work, dst, 2)
    assert len(first) == n_live // 2
    again = shrink_index(work, dst, 2)  # must not raise
    assert again == [] or all(a is not None for a in again)
    q = {"kind": "match", "text": "data query", "k": 10}
    assert list(IndexSearcher(idx).search(q)[0]) == \
        list(IndexSearcher(dst).search(q)[0])


def _write_parts(src, everies, n=400):
    """One parquet file of n docs per entry of `everies`, with `def tree` in
    every k-th doc of a file and `def oak` in the others."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src.mkdir()
    for fi, every in enumerate(everies):
        texts = [("def tree " if j % every == 0 else "def oak ")
                 + f"alpha beta {'xyz'[j % 3]}word leaf"
                 for j in range(n)]
        pq.write_table(pa.table({
            "repo": ["r"] * n, "path": [f"f{fi}_{j}.py" for j in range(n)],
            "commit": ["c"] * n, "lang": ["python"] * n, "content": texts}),
            str(src / f"part-{fi:05d}.parquet"), row_group_size=100)


_TREE_QUERIES = [
    {"kind": "match_phrase", "text": "def tree", "k": 1000},
    {"kind": "term", "term": "tree", "k": 1000},
    {"kind": "match", "text": "tree leaf", "operator": "and", "k": 1000},
    {"kind": "match_phrase", "text": "tree alpha beta", "k": 1000},
    {"kind": "match_phrase", "text": "def oak", "k": 1000},
]


def _assert_same_results(idx_a, idx_b):
    a, b = IndexSearcher(idx_a), IndexSearcher(idx_b)
    for q in _TREE_QUERIES:
        ia, sa = a.search(q)
        ib, sb = b.search(q)
        assert list(ia) == list(ib), q
        np.testing.assert_array_equal(sa, sb)


def test_merge_of_builds_with_different_hot_sets_equals_one_build(tmp_path):
    """merge(2 segments) == build(concat) when the two segments were built
    by separate calls with different sampled hot-term sets: `tree` is in
    every 8th doc of the first file and every 100th of the second, so the
    first call's sample has it hot and stores it in eight salt chunks, the
    second's does not and stores it as one chunk-0 row, and the merge must
    not fuse that row with the first segment's chunk 0. Each call is given
    its own sample, since an index otherwise keeps its first set."""
    from elasticsearch_ray.stages.tokenize import sample_hot_terms

    src = tmp_path / "src"
    _write_parts(src, (8, 100))
    appended, whole = str(tmp_path / "appended"), str(tmp_path / "whole")
    hidden = str(tmp_path / "hidden.parquet")
    os.rename(str(src / "part-00001.parquet"), hidden)
    first = sample_hot_terms(str(src))
    build_index(str(src), appended, docs_per_partition=400, hot_terms=first)
    os.rename(hidden, str(src / "part-00001.parquet"))
    second = sample_hot_terms(str(src))
    build_index(str(src), appended, docs_per_partition=400, hot_terms=second)
    assert "tree" in first and "tree" not in second
    assert first != second
    assert len(live_segments(committed_segments(appended))) == 2
    build_index(str(src), whole, docs_per_partition=800)

    force_merge(appended)
    assert len(live_segments(committed_segments(appended))) == 1
    _assert_same_results(appended, whole)
    ids, _ = IndexSearcher(appended).search(_TREE_QUERIES[0])
    assert len(ids) == 50 + 4


def _build_log(index_dir):
    with open(os.path.join(index_dir, "build_log.jsonl")) as f:
        return [json.loads(line) for line in f]


def _postings_rows(index_dir):
    cols = ["term", "chunk", "doc_bytes", "tf_bytes", "pos_bytes"]
    return sorted((sid, *r.values()) for sid in committed_segments(index_dir)
                  for r in pads.dataset(os.path.join(index_dir, sid, "postings"))
                  .to_table(columns=cols).to_pylist())


def _salt_chunks(index_dir, seg_id, term):
    t = pads.dataset(os.path.join(index_dir, seg_id, "postings")).to_table()
    return {c for w, c in zip(t["term"].to_pylist(), t["chunk"].to_pylist())
            if w == term}


def test_append_reuses_the_index_hot_set(tmp_path, monkeypatch):
    """An append to an index first built with hot_terms=None reads the set
    stored by that build instead of sampling: it salts the base's hot
    `tree` although the new file alone would not make it hot, and the index
    answers like a one-shot build with that set, before and after a merge."""
    import elasticsearch_ray.index.build as B

    src = tmp_path / "src"
    _write_parts(src, (8, 100))
    idx, whole = str(tmp_path / "idx"), str(tmp_path / "whole")
    hidden = str(tmp_path / "hidden.parquet")
    os.rename(str(src / "part-00001.parquet"), hidden)
    build_index(str(src), idx, docs_per_partition=400)
    hot = B.stored_hot_terms(idx)
    assert "tree" in hot

    os.rename(hidden, str(src / "part-00001.parquet"))

    def no_sampling(*a, **k):
        raise AssertionError("sample_hot_terms called on an append")

    monkeypatch.setattr(B, "sample_hot_terms", no_sampling)
    build_index(str(src), idx, docs_per_partition=400)
    assert len(_salt_chunks(idx, "seg_000000000400", "tree")) > 1
    assert [(r["hot_terms"], r["hot_terms_from"]) for r in _build_log(idx)] == \
        [(len(hot), "sampled"), (len(hot), "index")]
    assert _build_log(idx)[1]["hot_terms_s"] == 0.0

    build_index(str(src), whole, docs_per_partition=800, hot_terms=hot)
    _assert_same_results(idx, whole)
    force_merge(idx)
    _assert_same_results(idx, whole)


@pytest.mark.parametrize("after_commit", [False, True])
def test_resume_reuses_the_index_hot_set(tmp_path, after_commit):
    """A first build killed at a commit (before it, or after the first
    segment's) resumes with the set it stored, even once the inputs'
    sampled head has changed, and equals a clean build with that set."""
    import elasticsearch_ray.index.build as B
    from elasticsearch_ray.stages.tokenize import sample_hot_terms

    src = tmp_path / "src"
    _write_parts(src, (8, 8))
    hot = sample_hot_terms(str(src))
    assert "tree" in hot
    idx, clean = str(tmp_path / "idx"), str(tmp_path / "clean")

    class Boom(RuntimeError):
        pass

    orig = B.commit_segment

    def bomb(out_dir, seg_id, manifest):
        if after_commit:
            orig(out_dir, seg_id, manifest)
        raise Boom()

    B.commit_segment = bomb
    try:
        with pytest.raises(Boom):
            build_index(str(src), idx, docs_per_partition=400)
    finally:
        B.commit_segment = orig
    assert len(committed_segments(idx)) == int(after_commit)

    # the second file's `tree` turns rare: a new sample no longer has it
    shutil.rmtree(src)
    _write_parts(src, (8, 100))
    assert "tree" not in sample_hot_terms(str(src))
    build_index(str(src), idx, docs_per_partition=400)
    # the killed call logged nothing: every record is the resume's
    assert [r["hot_terms_from"] for r in _build_log(idx)] == \
        ["index"] * (2 - after_commit)
    assert len(_salt_chunks(idx, "seg_000000000400", "tree")) > 1

    build_index(str(src), clean, docs_per_partition=400, hot_terms=hot)
    assert B.stored_hot_terms(idx) == B.stored_hot_terms(clean) == hot
    assert _postings_rows(idx) == _postings_rows(clean)
    _assert_same_results(idx, clean)


def test_merge_fuses_only_doc_adjacent_rows(tmp_path):
    """Five segments, the middle one salting `tree` and `def` into chunks:
    the cold chunk-0 rows on each side fuse into two separate rows, both
    keyed (term, 0), and neither spans the salted middle."""
    src, idx, whole = tmp_path / "src", str(tmp_path / "idx"), str(tmp_path / "whole")
    _write_parts(src, (100, 100, 4, 100, 100), n=200)
    files = sorted(os.listdir(src))
    for i, f in enumerate(files):
        hot = frozenset(["tree", "def"]) if i == 2 else frozenset()
        build_index([str(src / g) for g in files[: i + 1]], idx,
                    docs_per_partition=200, hot_terms=hot)
    build_index(str(src), whole, docs_per_partition=1000, hot_terms=frozenset())
    force_merge(idx)
    (sid,) = live_segments(committed_segments(idx))
    t = pads.dataset(os.path.join(idx, sid, "postings")).to_table().to_pylist()
    tree_rows = sorted((r["chunk"], r["skip_last_doc"][-1]) for r in t
                       if r["term"] == "tree")
    assert [c for c, _ in tree_rows].count(0) == 2
    _assert_same_results(idx, whole)


def test_overlapping_postings_rows_raise():
    """A term whose postings rows overlap in doc range cannot be read
    correctly, so loading it fails and names the term."""
    import pyarrow as pa

    from elasticsearch_ray.search.engine import TermPostings
    from elasticsearch_ray.stages.encode import _PostingsColumns, encode_bucket

    def rows(spans):
        term, chunk, doc = [], [], []
        for c, docs in enumerate(spans):
            term += ["tree"] * len(docs)
            chunk += [c] * len(docs)
            doc += docs
        # the term's rows as a searcher gathers them from one segment table
        table = encode_bucket(pa.table({
            "term": term, "chunk": pa.array(chunk, pa.int32()),
            "doc_id": pa.array(doc, pa.int64()),
            "tf": pa.array([1] * len(doc), pa.int32()),
            "norm_len": pa.array([4] * len(doc), pa.int32()),
            "positions": pa.array([[0]] * len(doc), pa.list_(pa.int32())),
        }))
        return [(_PostingsColumns(table), np.arange(len(table)))]

    ok = TermPostings("tree", rows([[0, 3], [5, 9]]))
    assert ok.doc_ids.tolist() == [0, 3, 5, 9]
    with pytest.raises(ValueError, match="'tree'"):
        TermPostings("tree", rows([[0, 10], [5, 7]]))
    with pytest.raises(ValueError, match="'tree'"):
        TermPostings("tree", rows([[0, 5], [5, 7]]))


def _rows_with_swapped_dfs():
    """Two doc-adjacent ("a", 0) postings rows of 3 and 2 docs whose dfs
    are swapped to 2 and 3: the two doc streams still hold 5 values."""
    import pyarrow as pa

    from elasticsearch_ray.stages.encode import encode_bucket

    def row(docs):
        n = len(docs)
        return encode_bucket(pa.table({
            "term": ["a"] * n, "chunk": pa.array([0] * n, pa.int32()),
            "doc_id": pa.array(docs, pa.int64()),
            "tf": pa.array([1] * n, pa.int32()),
            "norm_len": pa.array([4] * n, pa.int32()),
            "positions": pa.array([[0]] * n, pa.list_(pa.int32())),
        }))

    t = pa.concat_tables([row([0, 1, 2]), row([3, 4])]).combine_chunks()
    return t.set_column(t.schema.get_field_index("df"), "df",
                        pa.array([2, 3], pa.int64()))


def test_merge_rejects_a_row_whose_df_disagrees_with_its_bytes():
    from elasticsearch_ray.index.merge import _merge_rows_table

    with pytest.raises(ValueError, match="row 0: decoded 3 values, expected 2"):
        _merge_rows_table(_rows_with_swapped_dfs(), np.zeros(16, np.uint8))


def test_split_rejects_a_row_whose_df_disagrees_with_its_bytes(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from elasticsearch_ray.index.manifest import SegmentManifest
    from elasticsearch_ray.index.reshape import _split_segment

    sid = "seg_000000000000"
    seg = tmp_path / "src" / sid
    for sub in ("docmeta", "postings"):
        (seg / sub).mkdir(parents=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "norm_byte": pa.array([4] * 5, pa.uint8()),
        "doc_len": pa.array([4] * 5, pa.int32())}),
        str(seg / "docmeta" / "part.parquet"))
    pq.write_table(_rows_with_swapped_dfs(), str(seg / "postings" / "part.parquet"))
    m = SegmentManifest(segment_id=sid, fragments=[], doc_count=5,
                        sum_doc_len=20, term_count=1, doc_id_min=0,
                        doc_id_max=4, analyzer="code", index_positions=True,
                        build_seconds=0.0)
    with pytest.raises(ValueError, match="row 0: decoded 3 values, expected 2"):
        _split_segment(str(tmp_path / "src"), sid, m, str(tmp_path / "dst"), 2)
    assert not (tmp_path / "dst").exists()


def test_merge_survives_a_reduce_worker_crash(dirs, tmp_path, monkeypatch):
    """A merge reduce task whose worker process exits on its first attempt
    is retried by Ray, and the merged segment equals a clean merge's: the
    same postings rows and the same answers to the reference queries."""
    import sys

    import ray.cloudpickle

    import elasticsearch_ray.index.merge as M

    _, index_dir = dirs
    clean, crashed = str(tmp_path / "clean"), str(tmp_path / "crashed")
    shutil.copytree(index_dir, clean)
    shutil.copytree(index_dir, crashed)
    force_merge(clean)

    marker = str(tmp_path / "crashed-once")
    task = M._merge_bucket_task

    def exit_on_first_attempt(out_path, norm_bytes, base, *tables):
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return task(out_path, norm_bytes, base, *tables)
        os._exit(1)

    monkeypatch.setattr(M, "_merge_bucket_task", exit_on_first_attempt)
    # the test module is not importable in Ray workers: ship the wrapper
    this = sys.modules[__name__]
    ray.cloudpickle.register_pickle_by_value(this)
    try:
        force_merge(crashed)
    finally:
        ray.cloudpickle.unregister_pickle_by_value(this)
    assert os.path.exists(marker)
    assert len(live_segments(committed_segments(crashed))) == 1
    assert _postings_rows(crashed) == _postings_rows(clean)
    assert _all_results(crashed)[0] == _all_results(clean)[0]
