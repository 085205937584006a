"""`serve` workload: one client sends a seeded query mix, one query at a
time, through the partitioned actor path (DistributedSearcher: DFS round,
per-actor search, k-way merge), in whole passes over the list until the run's
time is up; then the same list goes as one batch through the Ray Data
searcher stage (search_dataset)."""

from __future__ import annotations

import time

import numpy as np

from .common import median, non_increasing, percentile, same_ranking, timed
from .queries import (KINDS, TermDraw, absent_terms, cache_reuse_share, query_mix,
                      query_terms, term_classes)
from .wl_build import CLI_BUILD_OPTIONS, Corpus

N_DOCS = 6000
DOCS_PER_PARTITION = 1500  # four segments
N_SEARCHERS = 2
N_PER_KIND = 40  # 240 queries per pass
CLASS_SHARES = {"hot": 0.25, "mid": 0.35, "rare": 0.30, "absent": 0.10}
N_WARMUP = 24
CHECKPOINT_EVERY = 20  # queries between memory and CPU-speed samples


class ServeSetup:
    """Multi-segment index of a generated corpus, the query mix and the
    oracle's answers."""

    def __init__(self, ctx, name: str):
        from elasticsearch_ray.index.fast_build import build_index_tasks

        self.corpus = c = Corpus(ctx, name, N_DOCS)
        self.index = ctx.path(name, "idx")
        st = build_index_tasks(c.src, self.index, **{
            **CLI_BUILD_OPTIONS, "docs_per_partition": DOCS_PER_PARTITION})
        ctx.require(st.doc_count == c.oracle.n_docs
                    and st.sum_doc_len == c.oracle.sum_doc_len,
                    f"serve index stats {st.doc_count}/{st.sum_doc_len}")
        rng = np.random.default_rng([ctx.seed, 5])
        draw = TermDraw(rng, term_classes(c.df, c.n_docs),
                        absent_terms(rng, c.df, 64), CLASS_SHARES)
        pieces = [p for s in c.slices for p in s.pieces]
        mix = query_mix(ctx.seed, N_PER_KIND, draw, pieces)
        self.queries = [q for q, _ in mix]
        self.specs = [s for _, s in mix]
        self.expected = [c.oracle.search(s) for s in self.specs]
        self.mix_stats = {
            "distinct_terms": len({t for sp in self.specs for t in query_terms(sp)}),
            "cache_reuse_share": cache_reuse_share(self.specs)}


def check_batch(ctx, setup: ServeSetup, table, single_results) -> None:
    """search_dataset rows -> one checked operation per query: equal to the
    oracle and to the distributed searcher's answer to the same query."""
    qid = table["qid"].to_numpy()
    order = np.lexsort((table["rank"].to_numpy(), qid))
    qid = qid[order]
    docs = table["doc_id"].to_numpy()[order]
    scores = table["score"].to_numpy()[order]
    cuts = np.searchsorted(qid, np.arange(len(setup.queries) + 1))
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        ids, sc = docs[a:b], scores[a:b]
        ctx.op(same_ranking(ids, sc, *setup.expected[i])
               and same_ranking(ids, sc, *single_results[i]),
               f"search_dataset query {i} {setup.queries[i]} differs")


def run_batch(ctx, setup: ServeSetup):
    """The query list as one batch through search_dataset -> Arrow table."""
    import pyarrow as pa

    from elasticsearch_ray.search.stage import search_dataset

    ds = search_dataset(setup.index, setup.queries, concurrency=min(2, ctx.nproc))
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def run(ctx) -> None:
    import ray

    from elasticsearch_ray.search.distributed import DistributedSearcher

    setup = ServeSetup(ctx, "serve")
    dist = DistributedSearcher(setup.index, num_searchers=N_SEARCHERS)
    for q, want in list(zip(setup.queries, setup.expected))[:N_WARMUP]:
        ids, sc = dist.search(q)
        ctx.op(same_ranking(ids, sc, *want), f"warm-up query {q} differs")
    ctx.start_window()
    lat = []
    for _ in ctx.rounds():
        results = []
        for i, (q, want) in enumerate(zip(setup.queries, setup.expected)):
            ctx.tracer.new_trace()
            with ctx.tracer.span("search.distributed.search", kind=setup.specs[i]["kind"]):
                (ids, sc), dt = timed(dist.search, q)
            lat.append(dt)
            results.append((ids, sc))
            ctx.op(same_ranking(ids, sc, *want) and non_increasing(sc),
                   f"distributed query {i} {q} differs from the oracle")
            if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                ctx.checkpoint()
    # then the same list as one batch through the Ray Data searcher stage
    ctx.tracer.new_trace()
    with ctx.tracer.span("search.stage.search_dataset", queries=len(setup.queries)):
        table = run_batch(ctx, setup)
    check_batch(ctx, setup, table, results)
    ctx.checkpoint()
    for a in dist.actors:
        ray.kill(a)
    ctx.metrics["work_per_s"] = len(lat) / sum(lat)
    ctx.metrics["op_p50_ms"] = 1000.0 * median(lat)


class NoopActor:
    def ping(self, x):
        return x


def layers(ctx) -> None:
    import ray

    from elasticsearch_ray.search.distributed import DistributedSearcher
    from elasticsearch_ray.search.engine import IndexSearcher

    setup = ServeSetup(ctx, "layers-serve")
    with ctx.tracer.span("serve.query_mix", **setup.mix_stats):
        pass
    m = ctx.metrics
    searcher, m["search.engine.load_s"] = timed(IndexSearcher, setup.index)
    for q in setup.queries:  # warm pass: lazy decode and caches settle
        searcher.search(q)
    kernel = []
    for i, q in enumerate(setup.queries):
        with ctx.tracer.span("search.engine.search", kind=setup.specs[i]["kind"]):
            (ids, sc), dt = timed(searcher.search, q)
        kernel.append(dt)
        if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
            ctx.checkpoint()
        ctx.require(same_ranking(ids, sc, *setup.expected[i]), f"kernel query {i} differs")
    kinds = np.array([s["kind"] for s in setup.specs])
    kernel = np.array(kernel)
    for k in KINDS:
        m[f"search.engine.kernel_ms.{k}"] = 1000.0 * median(kernel[kinds == k])
    m["search.engine.kernel_p99_ms"] = 1000.0 * percentile(kernel, 99)

    t = time.perf_counter()
    dist = DistributedSearcher(setup.index, num_searchers=N_SEARCHERS)
    m["search.distributed.init_s"] = time.perf_counter() - t
    for q in setup.queries:
        dist.search(q)
    dlat = []
    for i, q in enumerate(setup.queries):
        with ctx.tracer.span("search.distributed.search"):
            _, dt = timed(dist.search, q)
        dlat.append(dt)
        if i % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
            ctx.checkpoint()
    dlat = np.array(dlat)
    m["search.distributed.p50_ms"] = 1000.0 * median(dlat)
    m["search.distributed.p99_ms"] = 1000.0 * percentile(dlat, 99)
    m["search.distributed.overhead_ms"] = 1000.0 * median(dlat - kernel)
    for a in dist.actors:
        ray.kill(a)

    noop = ray.remote(num_cpus=0)(NoopActor).remote()
    ray.get(noop.ping.remote(0))
    rpc = []
    for i in range(300):
        _, dt = timed(lambda: ray.get(noop.ping.remote(i)))
        rpc.append(dt)
    ray.kill(noop)
    m["ray.actor_rpc_ms"] = 1000.0 * median(rpc)

    with ctx.tracer.span("search.stage.search_dataset"):
        table, batch_s = timed(run_batch, ctx, setup)
    m["search.stage.batch_s"] = batch_s
    m["search.stage.overhead_s"] = batch_s - float(kernel.sum())
    ctx.require(len(table) > 0, "search_dataset returned nothing")
