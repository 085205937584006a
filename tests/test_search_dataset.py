"""`search_dataset` serves query batches on DistributedSearcher's partition
actors: qids must be unique, an index without live segments is refused, a
partition actor killed while batches are in flight leaves the rows as a
clean run's, the actors end with the Dataset that holds them, and a running
searcher's actors serve batches while its compiled graph stays up."""

from __future__ import annotations

import gc
import time

import pyarrow as pa
import pytest
import ray
from ray._private.state import actors as actor_state

from elasticsearch_ray.index.build import build_index
from elasticsearch_ray.search.distributed import DistributedSearcher
from elasticsearch_ray.search.stage import queries_to_dataset, search_dataset
from elasticsearch_ray.sources.corpus import write_corpus
from elasticsearch_ray.sources.queries import reference_queries


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory, ray_session):
    c = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(c, 1200, rows_per_file=1000, row_group_size=100, use_ray=True)
    d = str(tmp_path_factory.mktemp("index"))
    build_index(c, d, docs_per_partition=300, num_buckets=8, salt_chunks=4)
    return d


def _record_actors(monkeypatch) -> list[list]:
    """The actor handles of every DistributedSearcher built from now on."""
    started: list[list] = []
    init = DistributedSearcher.__init__

    def record(self, *args, **kw):
        init(self, *args, **kw)
        started.append(list(self.actors))

    monkeypatch.setattr(DistributedSearcher, "__init__", record)
    return started


def _stream(n_copies: int) -> list[dict]:
    """The reference queries repeated, each copy under its own qids."""
    return [{**q, "qid": i} for i, q in enumerate(reference_queries() * n_copies)]


def _rows(table: pa.Table) -> list[tuple]:
    return sorted(zip(*(table[c].to_pylist() for c in ("qid", "rank", "doc_id", "score"))))


def test_queries_to_dataset_rejects_duplicate_qids():
    """The second query's implicit qid (its list position, 1) repeats the
    first one's explicit qid: both answers would come back under one qid,
    with ranks 1..k twice."""
    with pytest.raises(ValueError, match="duplicate qid 1"):
        queries_to_dataset([{"qid": 1, "kind": "term", "term": "def"},
                            {"kind": "term", "term": "tree"}])


def test_distributed_searcher_rejects_index_without_segments(tmp_path):
    """Like IndexSearcher: no actors would start, and every query would be
    answered with nothing."""
    with pytest.raises(ValueError, match="no committed segments"):
        DistributedSearcher(str(tmp_path), num_searchers=2)
    with pytest.raises(ValueError, match="no committed segments"):
        search_dataset(str(tmp_path), [{"kind": "term", "term": "def"}])


def test_search_dataset_survives_actor_killed_mid_stream(index_dir, monkeypatch):
    """Kill one partition actor after the first batch of results arrived:
    the in-flight and later calls retry on the restarted actor (max_restarts
    and max_task_retries), which rebuilds its partition and the global stats
    in __init__, so the rows equal a clean run's."""
    stream = _stream(8)  # 248 queries, 16 per batch
    want = _rows(pa.concat_tables(list(search_dataset(
        index_dir, stream, concurrency=3).iter_batches(
            batch_format="pyarrow", batch_size=None))))

    started = _record_actors(monkeypatch)
    ds = search_dataset(index_dir, stream, concurrency=3)
    victim = started[-1][1]
    batches = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        if not batches:
            ray.kill(victim, no_restart=False)
            killed_after = len(b)
        batches.append(b)
    got = _rows(pa.concat_tables(batches))
    assert 0 < killed_after < len(want), killed_after
    assert actor_state(victim._actor_id.hex())["NumRestarts"] >= 1
    # a restarted actor is a new process with fresh lookup counters: non-zero
    # counters mean queries reached it after the kill
    served = ray.get(victim.__ray_call__.remote(
        lambda self: sum(self.searcher.counters.values())))
    assert served > 0
    assert got == want


def test_search_dataset_actors_end_with_the_dataset(index_dir, monkeypatch):
    """The partition actors live as long as the Dataset holding their
    handles: once it is consumed and dropped, every one of them is DEAD."""
    started = _record_actors(monkeypatch)
    ds = search_dataset(index_dir, _stream(1), concurrency=3)
    ids = [a._actor_id.hex() for a in started[0]]
    started.clear()
    assert len(ids) == 3
    assert len(ds.take_all()) > 0
    del ds
    gc.collect()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if all(actor_state(i)["State"] == "DEAD" for i in ids):
            break
        time.sleep(0.2)
    assert [actor_state(i)["State"] for i in ids] == ["DEAD"] * 3


def test_search_dataset_on_a_running_searcher(index_dir, monkeypatch):
    """Given a searcher that has served through its compiled graph, the
    batches run as plain calls on its actors beside the graph: the rows
    equal a path-built run's, no actor is started, and the graph still
    answers afterwards without a recompile."""
    stream = _stream(2)
    want = _rows(pa.concat_tables(list(search_dataset(
        index_dir, stream, concurrency=3).iter_batches(
            batch_format="pyarrow", batch_size=None))))
    dist = DistributedSearcher(index_dir, num_searchers=3)
    before = [dist.search(q) for q in reference_queries()]
    started = _record_actors(monkeypatch)
    got = _rows(pa.concat_tables(list(search_dataset(
        dist, stream).iter_batches(batch_format="pyarrow", batch_size=None))))
    assert got == want
    assert started == []
    for q, (ids, sc) in zip(reference_queries(), before):
        a_ids, a_sc = dist.search(q)
        assert list(a_ids) == list(ids), q
        assert list(a_sc) == list(sc), q
    n = len(reference_queries())
    assert dist.counters == {"graph_compiles": 1, "graph_executions": 2 * n}
