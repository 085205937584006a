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
     local top-k of every query. `DistributedSearcher.search` sends a query
     as one execution of a Ray compiled graph over the actors (input and
     outputs travel over shared-memory channels; about 0.2 ms of fan-out
     against about 1.1 ms for a `.remote` per actor plus `ray.get`). A Ray
     Data batch of queries (search/stage.py, the `_msearch` analog) goes
     through `search_batch` as one plain call per actor instead: its map
     tasks run in other worker processes, and a compiled graph can only be
     executed by the process that compiled it;
  4. reduce — `_merge`, which both transports call, orders the tiny
     per-actor candidate sets of each query by (score desc, doc_id asc) and
     cuts them at the query's k (SearchPhaseController.mergeTopDocs:221-243).

Results are identical to a single global searcher (asserted in tests) — the
partitioned path exists so query serving scales out with segments.
"""

from __future__ import annotations

import os
import threading
from collections import Counter

import numpy as np
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray


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
    """Fan `queries` out to every partition actor in one round of plain
    actor calls, then `_merge` their answers."""
    return _merge(ray.get([a.search.remote(queries) for a in actors]), queries)


def _merge(parts, queries: list[dict]):
    """The one cross-partition reduce. parts: each actor's answer to
    `queries`, one (doc ids, scores) pair per query. Merges each query's
    candidates by (score desc, doc_id asc) and cuts them at its own k.
    -> (query_index, rank, doc_id, score) arrays, ordered by query index and
    rank; ranks count from 1."""
    hits = [h for part in parts for h in part]
    counts = np.array([len(ids) for ids, _ in hits], np.int64)
    qi = np.repeat(np.tile(np.arange(len(queries)), len(parts)), counts)
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
    scoring with the statistics of every segment the coordinator serves.

    A compiled graph runs `search` on Ray's system thread while plain calls
    (Ray Data batches, `matched`) run on the actor's default thread; the
    IndexSearcher's term cache and counters are not thread-safe, so one lock
    serializes them."""

    def __init__(self, index_dir: str, segments: list[str],
                 all_segments: list[str], **kw):
        from .engine import IndexSearcher

        self.searcher = IndexSearcher(index_dir, segments=segments, **kw)
        self.searcher.set_global_stats(*collection_stats(index_dir, all_segments))
        self._lock = threading.Lock()

    def search(self, queries: list[dict]):
        """-> one (doc ids, float64 scores) local top-k per query."""
        with self._lock:
            return [(ids, np.asarray(sc, dtype=np.float64))
                    for ids, sc in map(self.searcher.search, queries)]

    def matched(self, named: dict):
        with self._lock:
            return self.searcher.matched_queries(named)


class DistributedSearcher:
    """Coordinator: round-robin segment assignment + fan-out + merge.

    `search` compiles its graph over the actors on first use and keeps it
    until `close()`; `counters` counts `graph_compiles`, `graph_executions`
    and `failovers`."""

    # tries of one query: the first send plus one resend per failover
    _ATTEMPTS = 3
    _graph = None

    def __init__(self, index_dir: str, num_searchers: int = 2, **kw):
        from ..index.manifest import committed_segments, live_segments

        self.counters: Counter = Counter()
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
        # copies); a compiled graph's loop task is retried too, fails on the
        # restarted actor, and `search` recompiles.
        # max_restarts>0 is safe here because the ctor args are
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

    def _compile(self):
        from ray.dag import InputNode, MultiOutputNode

        with InputNode() as inp:
            dag = MultiOutputNode([a.search.bind(inp) for a in self.actors])
        # search is synchronous: one execution in flight keeps each
        # channel at one shared-memory buffer instead of Ray's default ten
        self._graph = dag.experimental_compile(_max_inflight_executions=1)
        self.counters["graph_compiles"] += 1

    def search(self, q: dict):
        """One graph execution: every actor's local top-k of `q`, merged.
        An actor that died fails the execution; the graph is torn down, and
        once every actor answers again (a restarted one has reloaded its
        partition) a new graph resends the query. An actor that cannot
        restart raises RayActorError."""
        from ray.exceptions import RayActorError, RayChannelError, RayTaskError

        queries = [q]
        for attempt in range(self._ATTEMPTS):
            if self._graph is None:
                self._compile()
            try:
                # wait as long as the query takes, like ray.get on a
                # .remote call, not Ray's default graph get timeout
                parts = [ref.get(timeout=-1) for ref in self._graph.execute(queries)]
                break
            except (RayChannelError, RayActorError, RayTaskError) as e:
                if isinstance(e, RayTaskError) and not self._loop_ended():
                    raise  # the query's own error; the graph still serves
                if attempt == self._ATTEMPTS - 1:
                    self.close()
                    raise
            # outside the except block: the failed execution's refs go with
            # its traceback, so close() can free the old graph
            self.counters["failovers"] += 1
            self.close()
            # a restarted actor answers once it has reloaded its partition;
            # one that cannot restart raises RayActorError here
            ray.get([a.__ray_ready__.remote() for a in self.actors])
        self.counters["graph_executions"] += 1
        _, _, ids, sc = _merge(parts, queries)
        return ids, sc

    def _loop_ended(self) -> bool:
        """Whether an actor's graph loop task has ended: its error, not the
        query's, is what the execution raised."""
        loops = list(self._graph.worker_task_refs.values())
        return bool(ray.wait(loops, num_returns=1, timeout=0)[0])

    def close(self):
        """Tear the compiled graph down; the actors keep running, and a
        later `search` compiles a new graph."""
        import gc

        graph, self._graph = self._graph, None
        if graph is not None:
            graph.teardown()
            # free it now: its channels and refs form reference cycles, and
            # a graph collected while a newer one runs on the same actors
            # hung that one's executions
            del graph
            gc.collect()

    def __del__(self):
        # once a graph has run on them, the actors outlive their last handle
        # even after its teardown, so a searcher that compiled one ends them
        self.close()
        if self.counters["graph_compiles"] and ray.is_initialized():
            for a in self.actors:
                ray.kill(a)

    def matched_queries(self, named: dict):
        """Fan-out matched_queries: each actor annotates its own partition;
        the reduce is a concat of (doc_id, matched) rows."""
        import pandas as pd

        parts = ray.get([a.matched.remote(named) for a in self.actors])
        out = pd.concat(parts, ignore_index=True)
        return out.sort_values("doc_id").reset_index(drop=True)
