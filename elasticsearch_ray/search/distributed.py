"""Distributed query-then-fetch over partitioned searchers.

Mirrors the reference's coordinator protocol (SURVEY.md §3.2):
  1. segment partitions assigned to long-lived searcher actors (the data-node
     role; shards -> actors);
  2. collection-wide statistics, read from the index ONCE per actor: every
     actor group-sums the (term, df, sum_tf) postings columns of every
     served segment per dictionary key (field-qualified fkey+term keys
     included), takes N and sum_doc_len from the manifests and per-field
     token totals from docmeta, and installs them with
     IndexSearcher.set_global_stats. Every actor then scores with GLOBAL
     (N, avgdl, df, ttf) exactly like the reference's dfs_query_then_fetch
     (action/search/SearchDfsQueryThenFetchAsyncAction.java), without its
     per-query DFS round;
  3. query phase: ONE fan-out per list of queries — each actor returns its
     local top-k of every query. A single search is a list of one; a Ray
     Data batch of queries (search/stage.py) is the `_msearch` analog;
  4. reduce — `search_batch` orders the tiny per-actor candidate sets of
     each query by (score desc, doc_id asc) and cuts them at the query's k
     (SearchPhaseController.mergeTopDocs:221-243).

Results are identical to a single global searcher (asserted in tests) — the
partitioned path exists so query serving scales out with segments.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.dataset as pads


def collection_stats(index_dir: str, segment_ids: list[str]):
    """Collection-wide statistics of the given live segments ->
    (n_docs, sum_doc_len, (keys, df, ttf), field_sums), in the form
    IndexSearcher.set_global_stats takes. `keys` is sorted (Arrow's UTF-8
    byte order is code-point order, so np.searchsorted with str agrees)."""
    from ..index.manifest import committed_segments, live_segments
    from ..sources.reader import list_parquet_files

    live = live_segments(committed_segments(index_dir))
    manifests = [live[sid] for sid in segment_ids]
    postings = pads.dataset([
        f for sid in segment_ids
        for f in list_parquet_files(os.path.join(index_dir, sid, "postings"))
    ]).to_table(columns=["term", "df", "sum_tf"])
    terms = (postings.group_by("term")
             .aggregate([("df", "sum"), ("sum_tf", "sum")])
             .sort_by("term"))
    term_stats = (terms["term"].to_numpy(zero_copy_only=False),
                  terms["df_sum"].to_numpy(),
                  terms["sum_tf_sum"].to_numpy())
    field_sums: dict[str, int] = {}
    for sid in segment_ids:
        meta = pads.dataset(os.path.join(index_dir, sid, "docmeta"))
        lens = [c for c in meta.schema.names if c.startswith("len_")]
        for c, col in zip(lens, meta.to_table(columns=lens).columns):
            f = c[len("len_"):]
            field_sums[f] = field_sums.get(f, 0) + int(pc.sum(col).as_py() or 0)
    return (sum(m.doc_count for m in manifests),
            sum(m.sum_doc_len for m in manifests), term_stats, field_sums)


def search_batch(actors, queries: list[dict]):
    """Fan `queries` out to every partition actor in one round, then merge
    each query's candidates by (score desc, doc_id asc) and cut them at its
    own k. -> (query_index, rank, doc_id, score) arrays, ordered by query
    index and rank; ranks count from 1."""
    import ray

    hits = [h for part in ray.get([a.search.remote(queries) for a in actors])
            for h in part]
    counts = np.array([len(ids) for ids, _ in hits], np.int64)
    qi = np.repeat(np.tile(np.arange(len(queries)), len(actors)), counts)
    docs = np.concatenate(
        [np.asarray(ids, np.int64) for ids, _ in hits] + [np.empty(0, np.int64)])
    scores = np.concatenate([sc for _, sc in hits] + [np.empty(0)])
    order = np.lexsort((docs, -scores, qi))
    qi, docs, scores = qi[order], docs[order], scores[order]
    rank = np.arange(qi.size) - np.searchsorted(qi, qi) + 1
    ks = np.array([int(q.get("k", 10)) for q in queries], np.int64)
    keep = rank <= ks[qi]
    return qi[keep], rank[keep], docs[keep], scores[keep]


class SearcherActor:
    """One data-node role: an IndexSearcher over a partition of segments,
    scoring with the statistics of every segment the coordinator serves."""

    def __init__(self, index_dir: str, segments: list[str],
                 all_segments: list[str], **kw):
        from .engine import IndexSearcher

        self.searcher = IndexSearcher(index_dir, segments=segments, **kw)
        self.searcher.set_global_stats(*collection_stats(index_dir, all_segments))

    def search(self, queries: list[dict]):
        """-> one (doc ids, float64 scores) local top-k per query."""
        return [(ids, np.asarray(sc, dtype=np.float64))
                for ids, sc in map(self.searcher.search, queries)]

    def matched(self, named: dict):
        return self.searcher.matched_queries(named)


class DistributedSearcher:
    """Coordinator: round-robin segment assignment + fan-out + merge."""

    def __init__(self, index_dir: str, num_searchers: int = 2, **kw):
        import ray

        from ..index.manifest import committed_segments, live_segments

        seg_ids = sorted(live_segments(committed_segments(index_dir)))
        if not seg_ids:
            raise ValueError(f"no committed segments under {index_dir}")
        num_searchers = max(1, min(num_searchers, len(seg_ids)))
        assign: list[list[str]] = [[] for _ in range(num_searchers)]
        for i, sid in enumerate(seg_ids):
            assign[i % num_searchers].append(sid)
        # data-node failover: the durable index lives on (shared) storage and
        # every actor rebuilds its partition AND the collection-wide stats
        # from it in __init__, so a restarted actor is immediately correct —
        # max_restarts + task retries make a searcher crash invisible to the
        # coordinator (the reference's shard-failover analog, minus replica
        # copies). max_restarts>0 is safe here because the ctor args are
        # plain small values (a path string + segment-id lists), never
        # object-store refs — the ray#53727 restart-after-GC hazard needs
        # large/ref ctor args, which this actor never takes.
        Actor = ray.remote(max_restarts=2, max_task_retries=2)(SearcherActor)
        self.actors = [
            Actor.remote(index_dir, segs, seg_ids, **kw) for segs in assign if segs
        ]
        # wait for the constructors: a partition that fails to load fails
        # here, not at the first query
        ray.get([a.__ray_ready__.remote() for a in self.actors])

    def search(self, q: dict):
        _, _, ids, sc = search_batch(self.actors, [q])
        return ids, sc

    def matched_queries(self, named: dict):
        """Fan-out matched_queries: each actor annotates its own partition;
        the reduce is a concat of (doc_id, matched) rows."""
        import pandas as pd
        import ray

        parts = ray.get([a.matched.remote(named) for a in self.actors])
        out = pd.concat(parts, ignore_index=True)
        return out.sort_values("doc_id").reset_index(drop=True)
