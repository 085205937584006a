"""Partitioned (multi-actor) search with DFS global stats must be identical
to a single global searcher (SURVEY.md §3.2 protocol)."""

from __future__ import annotations

import numpy as np
import pytest

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.search.distributed import DistributedSearcher
from elasticsearch_ray.search.engine import IndexSearcher
from elasticsearch_ray.sources.corpus import write_corpus
from elasticsearch_ray.sources.queries import reference_queries


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, ray_session):
    c = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(c, 1200, rows_per_file=1000, row_group_size=100, use_ray=True)
    d = str(tmp_path_factory.mktemp("index"))
    build_index(c, d, docs_per_partition=300, num_buckets=8, salt_chunks=4)
    return d


def test_distributed_equals_global(index_dir):
    glob = IndexSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_searchers=3)
    assert len(dist.actors) == 3
    for q in reference_queries():
        g_ids, g_sc = glob.search(q)
        d_ids, d_sc = dist.search(q)
        assert list(g_ids) == list(d_ids), f"doc order mismatch: {q}"
        np.testing.assert_allclose(
            np.asarray(g_sc, np.float64), d_sc, rtol=1e-7, err_msg=str(q)
        )


def test_case_insensitive_term_through_search(index_dir):
    """A case_insensitive term folds its value before lookup through
    search(), on one searcher and across the partition actors."""
    glob = IndexSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_searchers=3)
    want_ids, want_sc = glob.search({"kind": "term", "term": "return", "k": 10})
    assert want_ids.size == 10
    q = {"kind": "term", "term": "RETURN", "case_insensitive": True, "k": 10}
    for s in (glob, dist):
        ids, sc = s.search(q)
        assert list(ids) == list(want_ids)
        np.testing.assert_allclose(np.asarray(sc, np.float64), want_sc,
                                   rtol=1e-7)


def test_partition_stats_differ_without_dfs(index_dir):
    """Sanity that the DFS phase matters: a lone partition's local stats
    differ from global (so score parity above is non-trivial)."""
    from elasticsearch_ray.index.manifest import committed_segments, live_segments

    segs = sorted(live_segments(committed_segments(index_dir)))
    part = IndexSearcher(index_dir, segments=[segs[0]])
    glob = IndexSearcher(index_dir)
    assert part.n_docs < glob.n_docs
    assert part.global_df("def") < glob.global_df("def")


def test_distributed_round2_kinds(index_dir):
    """Round-2 query kinds must also be partition-invariant (the DFS term
    collection covers simple_query_string / query_string / multi_match /
    common / script_score)."""
    glob = IndexSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_searchers=3)
    queries = [
        {"kind": "simple_query_string", "query": "def tree -zzz", "k": 10},
        {"kind": "query_string", "query": "def AND (tree OR node) -zzzmissing", "k": 10},
        {"kind": "common", "text": "def tree", "cutoff_frequency": 0.5, "k": 10},
        {"kind": "script_score", "query": {"kind": "term", "term": "def"},
         "script": "_score * 2.0", "k": 10},
        {"kind": "exists", "field": "lang", "k": 10},
        {"kind": "bool", "k": 10},  # clause-less -> match_all semantics
    ]
    for q in queries:
        g_ids, g_sc = glob.search(q)
        d_ids, d_sc = dist.search(q)
        assert list(g_ids) == list(d_ids), f"doc order mismatch: {q}"
        np.testing.assert_allclose(
            np.asarray(g_sc, np.float64), d_sc, rtol=1e-7, err_msg=str(q))


def test_distributed_common_cutoff_uses_global_df(index_dir):
    """common splits terms by df > cutoff_frequency × N: a partition must
    compare the collection-wide df, not its local one, or a cutoff just
    below a term's global df makes partitions treat it as low-frequency and
    return docs the global searcher excludes."""
    glob = IndexSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_searchers=3)
    for hi, lo in (("def", "scan"), ("return", "node")):
        cutoff = (glob.global_df(hi) - 1) / glob.n_docs
        q = {"kind": "common", "text": f"{lo} {hi}",
             "cutoff_frequency": cutoff, "k": glob.n_docs}
        g_ids, g_sc = glob.search(q)
        d_ids, d_sc = dist.search(q)
        assert list(g_ids) == list(d_ids), f"doc order mismatch: {q}"
        np.testing.assert_allclose(
            np.asarray(g_sc, np.float64), d_sc, rtol=1e-7, err_msg=str(q))


def test_matched_queries_distributed(index_dir):
    """matched_queries annotates per partition; distributed == global."""
    glob = IndexSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_searchers=3)
    named = {"has_def": {"kind": "term", "term": "def"},
             "has_tree": {"kind": "term", "term": "tree"}}
    g = glob.matched_queries(named)
    d = dist.matched_queries(named)
    assert g["doc_id"].tolist() == d["doc_id"].tolist()
    assert g["matched"].tolist() == d["matched"].tolist()


def test_distributed_altsim_equals_global(index_dir):
    """Alternative similarities must be partition-invariant: the DFS phase
    globalizes df AND total term frequency (the collection model input), so
    a partitioned LMDirichlet / DFR / IB searcher scores identically to the
    global one."""
    from elasticsearch_ray.search.altsim import make_similarity

    configs = [
        ("LMDirichlet", {"mu": 2000.0}),
        ("LMJelinekMercer", {"lam": 0.1}),
        ("DFR", {"basic_model": "if", "after_effect": "b",
                 "normalization": "h2"}),
        ("IB", {"distribution": "ll", "lamb": "df", "normalization": "h2"}),
    ]
    queries = [
        {"kind": "term", "term": "def", "k": 10},
        {"kind": "term", "term": "scan", "k": 10},
        {"kind": "match", "text": "def scan query", "k": 10},
    ]
    for name, params in configs:
        glob = IndexSearcher(index_dir, score_mode="exact64",
                             similarity=make_similarity(name, **params))
        dist = DistributedSearcher(index_dir, num_searchers=3,
                                   score_mode="exact64",
                                   similarity=make_similarity(name, **params))
        for q in queries:
            g_ids, g_sc = glob.search(q)
            d_ids, d_sc = dist.search(q)
            assert list(g_ids) == list(d_ids), (name, q)
            np.testing.assert_allclose(np.asarray(g_sc, np.float64), d_sc,
                                       rtol=1e-12, err_msg=f"{name} {q}")


def test_searcher_actor_failover(index_dir):
    """Killing a searcher actor mid-session must be invisible to the
    coordinator: the actor restarts (reloading its segment partition in
    __init__), the retried task serves, and results stay identical —
    the shard-failover property the multi-node design claims."""
    import ray

    dist = DistributedSearcher(index_dir, num_searchers=3)
    q = {"kind": "match", "text": "def return scan", "k": 10}
    before_ids, before_sc = dist.search(q)
    # kill one actor WITHOUT no_restart: Ray restarts it per max_restarts
    ray.kill(dist.actors[1], no_restart=False)
    after_ids, after_sc = dist.search(q)
    assert list(before_ids) == list(after_ids)
    np.testing.assert_allclose(before_sc, after_sc, rtol=1e-12)


def test_searcher_actor_killed_mid_stream(index_dir):
    """Kill a searcher actor while a query stream is in flight: its pending
    calls retry on the restarted actor, which rebuilds its partition and the
    collection-wide stats in __init__ (no stats ride along with a query), so
    every answer equals a clean run's."""
    import threading
    import time

    import ray

    stream = reference_queries() * 3
    clean = DistributedSearcher(index_dir, num_searchers=3)
    want = [clean.search(q) for q in stream]
    for a in clean.actors:
        ray.kill(a)

    dist = DistributedSearcher(index_dir, num_searchers=3)
    got: list = []
    errors: list = []

    def serve():
        try:
            for q in stream:
                got.append(dist.search(q))
        except Exception as e:  # surfaced by the assert below
            errors.append(e)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    deadline = time.monotonic() + 120
    while len(got) < 5 and t.is_alive() and time.monotonic() < deadline:
        time.sleep(0.001)
    done_at_kill = len(got)
    ray.kill(dist.actors[1], no_restart=False)
    t.join(timeout=300)
    assert not t.is_alive() and not errors, errors
    assert 0 < done_at_kill < len(stream), done_at_kill
    assert len(got) == len(stream)
    for q, (g_ids, g_sc), (w_ids, w_sc) in zip(stream, got, want):
        assert list(g_ids) == list(w_ids), q
        np.testing.assert_array_equal(g_sc, w_sc, err_msg=str(q))


def test_distributed_round3_kinds(index_dir):
    """Round-3-continuation kinds are partition-invariant too: intervals
    with a filter rule (per-partition interval geometry, constant-score
    union) and expression-language script_score."""
    glob = IndexSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_searchers=3)
    queries = [
        {"kind": "intervals",
         "rule": {"match": {"query": "def tree", "max_gaps": 2,
                            "ordered": True,
                            "filter": {"not_containing":
                                       {"match": {"query": "node"}}}}},
         "k": 10},
        {"kind": "intervals",
         "rule": {"match": {"query": "def", "filter":
                            {"before": {"match": {"query": "tree"}}}}},
         "k": 10},
        {"kind": "script_score", "query": {"kind": "term", "term": "def"},
         "script": {"lang": "expression",
                    "source": "_score > 1 ? _score * 2 : _score"}, "k": 10},
    ]
    for q in queries:
        g_ids, g_sc = glob.search(q)
        d_ids, d_sc = dist.search(q)
        assert list(g_ids) == list(d_ids), f"doc order mismatch: {q}"
        np.testing.assert_allclose(
            np.asarray(g_sc, np.float64), d_sc, rtol=1e-7, err_msg=str(q))


def test_bool_msm_distributed(index_dir):
    """bool minimum_should_match (session 16) is partition-invariant:
    every doc lives wholly in one partition, so per-partition
    matched-should counting equals the global count."""
    glob = IndexSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_searchers=3)
    for spec in ("2", "75%", "-1", "2<75%"):
        q = {"kind": "bool",
             "should": [{"kind": "term", "term": t}
                        for t in ("def", "tree", "node", "return")],
             "minimum_should_match": spec, "k": 10}
        g_ids, g_sc = glob.search(q)
        d_ids, d_sc = dist.search(q)
        assert list(g_ids) == list(d_ids), spec
        np.testing.assert_allclose(
            np.asarray(g_sc, np.float64), d_sc, rtol=1e-7, err_msg=spec)


def _same_answers(got, want, queries):
    for q, (g_ids, g_sc), (w_ids, w_sc) in zip(queries, got, want, strict=True):
        assert list(g_ids) == list(w_ids), q
        np.testing.assert_array_equal(g_sc, w_sc, err_msg=str(q))


def test_graph_failover_between_executions(index_dir):
    """An actor killed (and restarted by Ray) between two executions of the
    compiled graph: the next search tears the graph down, waits for the
    restarted actor, compiles once more and resends, so every answer equals
    the clean run's and the graph is recompiled exactly once."""
    import ray

    stream = reference_queries()
    dist = DistributedSearcher(index_dir, num_searchers=3)
    want = [dist.search(q) for q in stream]
    assert dist.counters == {"graph_compiles": 1, "graph_executions": len(stream)}
    ray.kill(dist.actors[1], no_restart=False)
    got = [dist.search(q) for q in stream]
    _same_answers(got, want, stream)
    assert dist.counters == {"graph_compiles": 2, "failovers": 1,
                             "graph_executions": 2 * len(stream)}


def test_close_then_search_recompiles(index_dir):
    """close() tears the graph down and leaves the actors running; the next
    search compiles a new graph and answers identically."""
    stream = reference_queries()
    dist = DistributedSearcher(index_dir, num_searchers=3)
    want = [dist.search(q) for q in stream]
    dist.close()
    dist.close()  # a second close has nothing to tear down
    assert dist.counters["graph_compiles"] == 1
    got = [dist.search(q) for q in stream]
    _same_answers(got, want, stream)
    assert dist.counters == {"graph_compiles": 2,
                             "graph_executions": 2 * len(stream)}


def test_graph_waits_past_the_dag_get_timeout(index_dir, monkeypatch):
    """A graph compiled while Ray's compiled-graph get timeout is 0 s (the
    default is 10 s) still answers every query: search waits for the
    actors as long as a query takes, as a plain ray.get does."""
    from ray.dag import DAGContext

    glob = IndexSearcher(index_dir)
    dist = DistributedSearcher(index_dir, num_searchers=3)
    monkeypatch.setattr(DAGContext.get_current(), "get_timeout", 0)
    stream = reference_queries()
    got = [dist.search(q) for q in stream]
    monkeypatch.undo()
    for q, (ids, sc) in zip(stream, got):
        g_ids, g_sc = glob.search(q)
        assert list(ids) == list(g_ids), q
        np.testing.assert_allclose(np.asarray(g_sc, np.float64), sc,
                                   rtol=1e-7, err_msg=str(q))
    assert dist.counters == {"graph_compiles": 1, "graph_executions": len(stream)}


def test_search_raises_when_an_actor_is_gone_for_good(index_dir):
    """An actor killed without restart makes search raise RayActorError
    within a bounded time instead of blocking. The kill is asynchronous: a
    search may still be answered by the dying process, so queries are sent
    until one raises."""
    import time

    import ray
    from ray.exceptions import RayActorError

    dist = DistributedSearcher(index_dir, num_searchers=3)
    q = {"kind": "match", "text": "def return scan", "k": 10}
    want_ids, _ = dist.search(q)
    ray.kill(dist.actors[1])
    t = time.monotonic()
    with pytest.raises(RayActorError):
        while time.monotonic() - t < 30:
            ids, _ = dist.search(q)
            assert list(ids) == list(want_ids)
    assert time.monotonic() - t < 30
    assert dist.counters["failovers"] <= 1


def test_graph_served_actors_end_with_the_searcher(index_dir):
    """A compiled graph leaves its actors referenced after teardown, so a
    searcher that served through one ends its actors when it is dropped."""
    import gc
    import time

    from ray._private.state import actors as actor_state

    dist = DistributedSearcher(index_dir, num_searchers=3)
    dist.search({"kind": "term", "term": "def", "k": 5})
    ids = [a._actor_id.hex() for a in dist.actors]
    del dist
    gc.collect()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if all(actor_state(i)["State"] == "DEAD" for i in ids):
            break
        time.sleep(0.2)
    assert [actor_state(i)["State"] for i in ids] == ["DEAD"] * 3
