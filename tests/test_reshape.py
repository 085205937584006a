"""Resharding correctness (_clone/_shrink/_split/_rollover analogs,
index/reshape.py): every reshape preserves search results EXACTLY (doc ids
are global, global stats carried by manifests), split parts partition the
doc ranges, interrupted reshapes resume, rollover trips on its conditions."""

from __future__ import annotations

import os
import shutil

import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.index.manifest import committed_segments, live_segments
from elasticsearch_ray.index.reshape import (
    clone_index,
    create_alias,
    resolve_alias,
    rollover,
    shrink_index,
    split_index,
)
from elasticsearch_ray.search.engine import IndexSearcher
from elasticsearch_ray.sources.corpus import write_corpus
from elasticsearch_ray.sources.queries import reference_queries


@pytest.fixture(scope="module")
def dirs(tmp_path_factory, ray_session):
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
    # a couple of position-sensitive extras so split/merged positions are
    # exercised too
    for extra in ({"kind": "match_phrase", "text": "def main", "k": 10},
                  {"kind": "match_phrase", "text": "import os", "slop": 2,
                   "k": 10}):
        ids, sc = s.search(extra)
        out[str(extra)] = (list(ids), [float(x) for x in sc])
    return out, s


def test_clone_preserves_results(dirs, tmp_path):
    _, idx = dirs
    before, s0 = _all_results(idx)
    dst = str(tmp_path / "clone")
    sids = clone_index(idx, dst)
    assert sorted(sids) == sorted(live_segments(committed_segments(idx)))
    after, s1 = _all_results(dst)
    assert before == after
    assert s0.n_docs == s1.n_docs and s0.sum_doc_len == s1.sum_doc_len


def test_split_preserves_results_and_partitions_ranges(dirs, tmp_path):
    _, idx = dirs
    before, s0 = _all_results(idx)
    dst = str(tmp_path / "split")
    sids = split_index(idx, dst, 2)
    live = live_segments(committed_segments(dst))
    assert sorted(sids) == sorted(live)
    assert len(live) == 8  # 4 source segments x 2 parts
    # ranges partition: disjoint, union covers all docs
    ranges = sorted((m.doc_id_min, m.doc_id_max) for m in live.values())
    for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
        assert a_hi < b_lo
    assert sum(m.doc_count for m in live.values()) == s0.n_docs
    assert sum(m.sum_doc_len for m in live.values()) == s0.sum_doc_len
    after, s1 = _all_results(dst)
    assert before == after
    for m in live.values():
        assert m.extra.get("split_from")


def test_shrink_preserves_results(dirs, tmp_path):
    _, idx = dirs
    before, _ = _all_results(idx)
    dst = str(tmp_path / "shrink")
    merged = shrink_index(idx, dst, 2)
    live = live_segments(committed_segments(dst))
    assert len(live) == 2 and sorted(merged) == sorted(live)
    after, _ = _all_results(dst)
    assert before == after
    for m in live.values():
        assert len(m.merged_from) == 2


def test_split_then_shrink_roundtrip(dirs, tmp_path):
    _, idx = dirs
    before, _ = _all_results(idx)
    mid = str(tmp_path / "mid")
    split_index(idx, mid, 3)
    back = str(tmp_path / "back")
    shrink_index(mid, back, 3)
    after, _ = _all_results(back)
    assert before == after


def test_shrink_factor_validation(dirs, tmp_path):
    _, idx = dirs
    with pytest.raises(ValueError):
        shrink_index(idx, str(tmp_path / "bad"), 3)  # 4 % 3 != 0


def test_split_resumes_after_partial(dirs, tmp_path):
    _, idx = dirs
    dst = str(tmp_path / "resume")
    sids = split_index(idx, dst, 2)
    # simulate a lost part: remove one committed sub-segment
    victim = sorted(sids)[1]
    shutil.rmtree(os.path.join(dst, victim))
    sids2 = split_index(idx, dst, 2)
    assert sorted(sids2) == sorted(sids)
    before, _ = _all_results(idx)
    after, _ = _all_results(dst)
    assert before == after


def test_rollover_conditions(tmp_path, dirs):
    _, idx = dirs
    base = str(tmp_path / "roll")
    os.makedirs(base)
    create_alias(base, "logs", "logs-000001")
    # empty index: nothing met
    r = rollover(base, "logs", max_docs=10)
    assert not r["rolled_over"] and not any(r["conditions"].values())
    # point the alias index at a real index by copying segments in
    shutil.rmtree(os.path.join(base, "logs-000001"))
    shutil.copytree(idx, os.path.join(base, "logs-000001"))
    r = rollover(base, "logs", max_docs=500, dry_run=True)
    assert r["dry_run"] and not r["rolled_over"]
    assert any(r["conditions"].values())
    assert resolve_alias(base, "logs")["index"] == "logs-000001"
    r = rollover(base, "logs", max_docs=500, max_age_s=1e9)
    assert r["rolled_over"] and r["new_index"] == "logs-000002"
    st = resolve_alias(base, "logs")
    assert st["index"] == "logs-000002" and st["generation"] == 2
    # new empty index: conditions reset
    r = rollover(base, "logs", max_docs=500)
    assert not r["rolled_over"]
    # size condition on the old data
    create_alias(base, "big", "big-000001")
    shutil.rmtree(os.path.join(base, "big-000001"))
    shutil.copytree(idx, os.path.join(base, "big-000001"))
    r = rollover(base, "big", max_size_bytes=1)
    assert r["rolled_over"]


def test_fuzz_reshape_sequences(dirs, tmp_path):
    """Seeded fuzz: random chains of split/shrink/clone/force_merge over the
    same index must all preserve the full query-set results exactly (the
    resize invariant: doc ids global, layout-only transforms)."""
    import numpy as np

    from elasticsearch_ray.index.merge import force_merge, gc_merged

    _, idx = dirs
    before, s0 = _all_results(idx)
    rng = np.random.default_rng(7)
    cur = idx
    for step in range(5):
        nxt = str(tmp_path / f"s{step}")
        live = live_segments(committed_segments(cur))
        n = len(live)
        ops_pool = ["split", "clone"]
        divisors = [f for f in (2, 3, 4) if n % f == 0 and n // f >= 1 and f <= n]
        if divisors:
            ops_pool.append("shrink")
        if n >= 2:
            ops_pool.append("merge")
        op = ops_pool[int(rng.integers(len(ops_pool)))]
        if op == "split":
            split_index(cur, nxt, int(rng.integers(2, 4)))
        elif op == "shrink":
            shrink_index(cur, nxt, divisors[int(rng.integers(len(divisors)))])
        elif op == "clone":
            clone_index(cur, nxt)
        else:
            clone_index(cur, nxt)
            force_merge(nxt, max_num_segments=max(1, n // 2))
            gc_merged(nxt)
        after, s1 = _all_results(nxt)
        assert after == before, (step, op)
        assert (s1.n_docs, s1.sum_doc_len) == (s0.n_docs, s0.sum_doc_len)
        cur = nxt


def test_index_templates(dirs, tmp_path):
    """_template analog: glob patterns, order precedence, nested merge,
    explicit-settings override, persist/load round-trip, and create_index
    applying the resolved settings to a real build."""
    from elasticsearch_ray.index import templates as T

    for n in ("t_base", "t_logs", "t_hot"):
        T.delete_template(n)
    T.put_template("t_base", ["*"], {"analyzer": "code", "num_buckets": 8},
                   order=0)
    T.put_template("t_logs", ["logs-*"],
                   {"analyzer": "simple", "opts": {"a": 1}}, order=1)
    T.put_template("t_hot", ["logs-hot-*"],
                   {"opts": {"b": 2}, "num_buckets": 4}, order=2)

    assert [t["name"] for t in T.matching_templates("logs-hot-1")] == [
        "t_base", "t_logs", "t_hot"]
    s = T.resolve_settings("logs-hot-1")
    assert s["analyzer"] == "simple"          # t_logs overrides t_base
    assert s["num_buckets"] == 4              # t_hot overrides t_base
    assert s["opts"] == {"a": 1, "b": 2}      # nested dicts merge per key
    s2 = T.resolve_settings("logs-hot-1", {"analyzer": "code"})
    assert s2["analyzer"] == "code"           # request wins over templates
    assert T.resolve_settings("other")["analyzer"] == "code"

    p = str(tmp_path / "templates.json")
    T.persist_templates(p)
    T.delete_template("t_hot")
    assert T.get_template("t_hot") is None
    assert T.load_templates(p) == 3
    assert T.get_template("t_hot")["order"] == 2

    # create_index applies resolved settings to a real build
    c, idx0 = dirs
    out = str(tmp_path / "templated")
    stats, applied = T.create_index(c, out, "logs-hot-7",
                                    docs_per_partition=500)
    assert applied["analyzer"] == "simple" and applied["num_buckets"] == 4
    assert stats.doc_count == 1000
    import json

    rec = json.load(open(os.path.join(out, "settings.json")))
    assert rec["index"] == "logs-hot-7"
    s = IndexSearcher(out, analyzer="simple")
    ids, _ = s.search({"kind": "match", "text": "import", "k": 5})
    assert len(ids) > 0
    for n in ("t_base", "t_logs", "t_hot"):
        T.delete_template(n)
