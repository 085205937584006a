"""Query-serving as a Ray Data stage (SURVEY.md §2.4 Ray mapping).

A dataset of queries flows through an actor pool of searchers
(`map_batches(SearcherStage, concurrency=N)`); each actor loads the index
ONCE in __init__ and serves batches of queries — the reference analog of a
data node's SEARCH threadpool executing QueryPhase per shard
(search/SearchService.java:365, threadpool/ThreadPool.java:177-178).

Every actor here loads all segments, so each answers a query alone and no
merge is needed. The segment-partitioned path, where actors score with
collection-wide statistics and a coordinator merges their top-k, is
`search/distributed.py`.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

from .engine import IndexSearcher

RESULTS_SCHEMA = pa.schema(
    [
        ("qid", pa.int64()),
        ("rank", pa.int32()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
    ]
)


class SearcherStage:
    def __init__(
        self,
        index_dir: str,
        *,
        score_mode: str = "lucene",
        use_wand: bool = True,
        fetch_columns: list[str] | None = None,
    ):
        self.searcher = IndexSearcher(index_dir, score_mode=score_mode)
        self.use_wand = use_wand
        self.fetch_columns = fetch_columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        queries = [json.loads(s) for s in batch["query"].to_pylist()]
        hits = [self.searcher.search(q, use_wand=self.use_wand) for q in queries]
        counts = np.array([len(ids) for ids, _ in hits], np.int64)
        docs = np.concatenate(
            [np.asarray(ids, np.int64) for ids, _ in hits] + [np.empty(0, np.int64)])
        scores = np.concatenate(
            [np.asarray(sc, np.float64) for _, sc in hits] + [np.empty(0)])
        first = np.repeat(np.cumsum(counts) - counts, counts)
        out = pa.table(
            {
                "qid": pa.array(np.repeat(batch["qid"].to_numpy(), counts), pa.int64()),
                "rank": pa.array(np.arange(docs.size) - first + 1, pa.int32()),
                "doc_id": pa.array(docs, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )
        if self.fetch_columns:
            # always append, even for a zero-hit batch — blocks must carry
            # one stable schema or downstream unification fails
            meta = self.searcher.fetch(docs, self.fetch_columns)
            for c in self.fetch_columns:
                if c != "doc_id":
                    out = out.append_column(c, meta[c])
        return out


def queries_to_dataset(queries: list[dict]):
    """[{qid?, ...query}] -> Dataset of (qid, query json) rows."""
    import ray.data as rd

    rows = []
    for i, q in enumerate(queries):
        q = dict(q)
        qid = int(q.pop("qid", i))
        rows.append({"qid": qid, "query": json.dumps(q)})
    return rd.from_items(rows)


def search_dataset(
    index_dir: str,
    queries,
    *,
    concurrency: int | tuple[int, int] = 2,
    batch_size: int = 16,
    score_mode: str = "lucene",
    use_wand: bool = True,
    fetch_columns: list[str] | None = None,
):
    """queries: list[dict] or a Dataset with (qid, query) -> results Dataset."""
    if isinstance(queries, list):
        queries = queries_to_dataset(queries)
    return queries.map_batches(
        SearcherStage,
        # actor restarts can't replay ctor kwargs once their object-store
        # copies are GC'd (ray#53727) — disable restarts on pool stages
        # whose state is rebuilt from durable inputs anyway; Ray Data's
        # task-level retry still covers transient worker loss
        max_restarts=0,
        fn_constructor_kwargs=dict(
            index_dir=index_dir,
            score_mode=score_mode,
            use_wand=use_wand,
            fetch_columns=fetch_columns,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
