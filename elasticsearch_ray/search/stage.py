"""Query-serving as a Ray Data stage (SURVEY.md §2.4 Ray mapping).

A dataset of queries flows through `map_batches`; every batch of queries
goes to the partition-owning actors of a `DistributedSearcher` in one
fan-out, and `search_batch` merges their per-query top-k — the reference's
`_msearch`, which sends a list of searches through the same coordinator
protocol as one search (search/distributed.py, SURVEY.md §3.2). Built from
an index path, the actors live as long as the Dataset that holds their
handles; a running searcher's actors live as long as the searcher.
"""

from __future__ import annotations

import json

import pyarrow as pa

from .distributed import DistributedSearcher, search_batch


def _search_rows(batch: pa.Table, actors) -> pa.Table:
    """(qid, query json) rows -> (qid, rank, doc_id, score) rows."""
    queries = [json.loads(s) for s in batch["query"].to_pylist()]
    qi, rank, docs, scores = search_batch(actors, queries)
    return pa.table(
        {
            "qid": pa.array(batch["qid"].to_numpy()[qi], pa.int64()),
            "rank": pa.array(rank, pa.int32()),
            "doc_id": pa.array(docs, pa.int64()),
            "score": pa.array(scores, pa.float64()),
        }
    )


def queries_to_dataset(queries: list[dict]):
    """[{qid?, ...query}] -> Dataset of (qid, query json) rows. A query
    without a qid takes its list position; a qid may appear only once."""
    import ray.data as rd

    rows, seen = [], set()
    for i, q in enumerate(queries):
        q = dict(q)
        qid = int(q.pop("qid", i))
        if qid in seen:
            raise ValueError(f"duplicate qid {qid} (query {i})")
        seen.add(qid)
        rows.append({"qid": qid, "query": json.dumps(q)})
    return rd.from_items(rows)


def search_dataset(index_dir_or_searcher, queries, *, concurrency: int = 2):
    """queries: list[dict] or a Dataset with (qid, query) -> results Dataset
    of (qid, rank, doc_id, score), served by `concurrency` new partition
    actors over an index path, or by the actors of a running
    DistributedSearcher (which must outlive the Dataset; `concurrency` is
    then unused).

    Batches go to the actors as plain calls (`search_batch`), not through
    the searcher's compiled graph: the map tasks run in Ray worker
    processes, and a compiled graph can only be executed by the process that
    compiled it. A batch of 16 queries already spreads one call's cost."""
    if isinstance(queries, list):
        queries = queries_to_dataset(queries)
    dist = index_dir_or_searcher
    if not isinstance(dist, DistributedSearcher):
        dist = DistributedSearcher(dist, num_searchers=concurrency)
    return queries.map_batches(_search_rows, fn_kwargs={"actors": dist.actors},
                               batch_format="pyarrow", batch_size=16)
