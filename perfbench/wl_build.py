"""`build` workload: repeated cold builds of a generated source-code corpus
with the build function and options that `cli build` uses by default, each
verified by opening a searcher on the result."""

from __future__ import annotations

import shutil
import time

import numpy as np

from .common import dir_bytes, median, same_ranking, timed
from .corpus import write_corpus
from .oracle import Bm25Oracle

N_DOCS = 4000
ROWS_PER_FILE = 1000
N_CHECK_QUERIES = 6
N_CHECK_FETCH = 16

# `cli build` defaults (elasticsearch_ray/cli.py: --engine tasks,
# --docs-per-partition 250000, --num-buckets 32, --analyzer code, positions on)
CLI_BUILD_OPTIONS = dict(
    analyzer="code", index_positions=True, docs_per_partition=250_000,
    num_buckets=32, content_column="content",
    meta_columns=("repo", "path", "commit", "lang"),
)


def cli_build(src: str, out: str):
    from elasticsearch_ray.index.fast_build import build_index_tasks

    return build_index_tasks(src, out, **CLI_BUILD_OPTIONS)


class Corpus:
    """The generated corpus on disk plus its oracle."""

    def __init__(self, ctx, name: str, n_docs: int):
        self.src = ctx.path(name, "src")
        self.slices = write_corpus(self.src, ctx.seed, n_docs, ROWS_PER_FILE)
        self.n_docs = n_docs
        self.oracle = Bm25Oracle()
        for s in self.slices:
            self.oracle.add(s.lo, s.indexed_streams())
        self.df = self.oracle.doc_freqs()
        self.sha = [h for s in self.slices for h in s.sha256()]


def verify_index(ctx, corpus: Corpus, out: str, rng) -> None:
    """Stats, stored hashes and a few ranked term queries against the oracle."""
    from elasticsearch_ray.index.manifest import index_stats
    from elasticsearch_ray.search.engine import IndexSearcher

    st = index_stats(out)
    o = corpus.oracle
    ctx.op(st.doc_count == o.n_docs and st.sum_doc_len == o.sum_doc_len,
           f"build stats {st.doc_count}/{st.sum_doc_len} != {o.n_docs}/{o.sum_doc_len}")
    with ctx.tracer.span("search.engine.load"):
        s = IndexSearcher(out)
    ids = np.sort(rng.choice(corpus.n_docs, N_CHECK_FETCH, replace=False))
    with ctx.tracer.span("search.engine.fetch"):
        got = s.fetch(ids, ["doc_id", "sha256"]).to_pydict()
    ctx.op(got["doc_id"] == ids.tolist()
           and got["sha256"] == [corpus.sha[int(i)] for i in ids],
           "fetched sha256 differs from the source content")
    terms = list(corpus.df)
    for t in rng.choice(terms, N_CHECK_QUERIES, replace=False):
        spec = {"kind": "term", "terms": [str(t)], "k": 10}
        with ctx.tracer.span("search.engine.search", kind="term"):
            got_ids, got_sc = s.search({"kind": "term", "term": str(t), "k": 10})
        want = o.search(spec)
        ctx.op(same_ranking(got_ids, got_sc, *want), f"build: term {t!r} ranking differs")


def run(ctx) -> None:
    corpus = Corpus(ctx, "build", N_DOCS)
    rng = np.random.default_rng([ctx.seed, 4])
    cli_build(corpus.src, ctx.path("warm"))  # worker start-up and imports
    shutil.rmtree(ctx.path("warm"))
    ctx.start_window()
    times = []
    for n in ctx.rounds():
        out = ctx.path(f"idx{n}")
        ctx.tracer.new_trace()
        with ctx.tracer.span("index.build", docs=N_DOCS):
            _, dt = timed(cli_build, corpus.src, out)
        times.append(dt)
        verify_index(ctx, corpus, out, rng)
        ctx.checkpoint()
        shutil.rmtree(out)
    ctx.metrics["work_per_s"] = N_DOCS * len(times) / sum(times)
    ctx.metrics["op_p50_ms"] = 1000.0 * median(times)


def layers(ctx) -> None:
    """Each build layer's public function called in the driver on the build
    corpus; the remainder of a full build is exchange, scheduling and commit."""
    import pyarrow as pa

    from elasticsearch_ray.index.build import plan_partitions
    from elasticsearch_ray.sources.reader import plan_fragments
    from elasticsearch_ray.stages.encode import encode_bucket
    from elasticsearch_ray.stages.tokenize import TokenizeFragments, sample_hot_terms

    corpus = Corpus(ctx, "layers-build", N_DOCS)
    opts = CLI_BUILD_OPTIONS
    m = ctx.metrics
    t = time.perf_counter()
    frags = plan_fragments(corpus.src)
    plan_partitions(frags, opts["docs_per_partition"])
    m["sources.plan_s"] = time.perf_counter() - t
    ctx.checkpoint()
    hot, m["stages.tokenize.hot_terms_s"] = timed(
        sample_hot_terms, corpus.src, analyzer=opts["analyzer"],
        content_column=opts["content_column"])
    tok = TokenizeFragments(
        analyzer=opts["analyzer"], docmeta_dir=ctx.path("layers-build", "docmeta"),
        hot_terms=hot, num_buckets=opts["num_buckets"],
        chunk_range=max(1, opts["docs_per_partition"] // 8),
        index_positions=opts["index_positions"],
        content_column=opts["content_column"], meta_columns=opts["meta_columns"])
    t = time.perf_counter()
    tables = []
    for f in frags:
        batch = {k: np.array([v]) for k, v in f.to_dict().items()}
        tables.extend(tok(batch))
    m["stages.tokenize.s"] = time.perf_counter() - t
    ctx.checkpoint()
    triples = pa.concat_tables(tables)
    m["stages.tokenize.triples"] = len(triples)
    m["stages.tokenize.bytes"] = triples.nbytes
    buckets = triples["bucket"].to_numpy()
    order = np.argsort(buckets, kind="stable")
    triples = triples.take(pa.array(order))
    cuts = np.searchsorted(buckets[order], np.arange(opts["num_buckets"] + 1))
    t = time.perf_counter()
    encoded = [encode_bucket(triples.slice(int(a), int(b - a)))
               for a, b in zip(cuts[:-1], cuts[1:]) if b > a]
    m["stages.encode.s"] = time.perf_counter() - t
    m["stages.encode.rows"] = sum(len(e) for e in encoded)
    m["stages.encode.bytes"] = sum(e.nbytes for e in encoded)
    ctx.checkpoint()
    out = ctx.path("layers-build", "idx")
    with ctx.tracer.span("index.build", docs=N_DOCS):
        _, wall = timed(cli_build, corpus.src, out)
    m["index.build.s"] = wall
    m["index.build.orchestration_s"] = wall - sum(
        m[k] for k in ("sources.plan_s", "stages.tokenize.hot_terms_s",
                       "stages.tokenize.s", "stages.encode.s"))
    m["index.postings_bytes"] = dir_bytes(out, "postings")
    m["index.docmeta_bytes"] = dir_bytes(out, "docmeta")
    m["index.bytes_per_doc"] = (m["index.postings_bytes"] + m["index.docmeta_bytes"]) / N_DOCS
    shutil.rmtree(ctx.path("layers-build"))
