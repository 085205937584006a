"""`ingest` workload: writes beside reads.

One round:
1. a base index of BASE_BATCHES partitions;
2. N_APPENDS times: a new file of exactly one partition goes through the
   resume path of the build; a fresh searcher is opened (the refresh); a
   burst of queries over a small term set runs and is checked, together with
   the batch's marker term, which must return exactly the batch's docs;
3. force_merge to one segment, a fresh searcher and a final checked pass,
   which must also equal the last pre-merge answers;
4. the fixed fault scenario: inputs that do not depend on the seed, on which
   two known faults fail every time (F2: phrase matches lost by a merge of
   segments whose sampled hot-term sets differ; F1: rows of a file appended
   after a partition that was not full are silently skipped). Their
   operations count as failed, so a fix shows as a lower failed share.

Every build call is made as `cli build` makes it, with hot_terms=None, so
each append samples its own hot-term set (`index.build.hot_terms_changed`
counts the appends whose set differs from the base's). A post-merge phrase
query that disagrees with the oracle is counted as an F2 failed operation;
on seeds 1-24 none did, so F2 shows in the fixed scenario only.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

from .common import dir_bytes, median, non_increasing, same_ranking, timed
from .corpus import CorpusSlice
from .oracle import Bm25Oracle
from .wl_build import CLI_BUILD_OPTIONS

BATCH = 100  # docs per appended file == docs per partition
BASE_BATCHES = 2
N_APPENDS = 8
SMALL_SET = 48  # burst terms come from the top of the base's df ranking
BURST_KINDS = ("term", "match_or", "phrase")
BURST_PER_KIND = 8  # 24 distinct queries over SMALL_SET terms: they stay cached


def _marker(k: int) -> str:
    # "mk" never occurs in generated words (they are consonant-vowel syllables)
    return "mk" + "abcdefghijklmnop"[k] + "x"


class IngestPlan:
    """Seeded inputs of one round: base slice, append slices with markers,
    and the burst query pool."""

    def __init__(self, seed: int):
        self.base = CorpusSlice(seed, 0, BASE_BATCHES * BATCH)
        self.appends = []
        for k in range(N_APPENDS):
            lo = (BASE_BATCHES + k) * BATCH
            self.appends.append(CorpusSlice(seed, lo, lo + BATCH, marker=_marker(k)))
        base_oracle = Bm25Oracle()
        base_oracle.add(0, self.base.indexed_streams())
        df = base_oracle.doc_freqs()
        small = [t for t, _ in sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:SMALL_SET]]
        self.pool = self._pool(small)

    def _pool(self, small: list[str]):
        """Burst queries at fixed frequency ranks, so that every seed's burst
        has the same make-up: term and match-or queries stride over the small
        set, phrases over its adjacent pairs ranked by how often they occur."""
        from collections import Counter

        allowed = set(small)
        pairs = Counter((a, b) for pcs in self.base.pieces for a, b in zip(pcs, pcs[1:])
                        if a in allowed and b in allowed and a != b)
        ranked = [p for p, _ in sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))]
        step = len(small) // BURST_PER_KIND
        pool = []
        for j in range(BURST_PER_KIND):
            k = (10, 100)[j % 2]
            t = small[j * step]
            pool.append(({"kind": "term", "term": t, "k": k},
                         {"kind": "term", "terms": [t], "k": k}))
            terms = [small[j * step + 1], small[j * step + step - 1]]
            pool.append(({"kind": "match", "text": " ".join(terms), "operator": "or", "k": k},
                         {"kind": "match_or", "terms": terms, "k": k}))
            a, b = ranked[min(3 * j, len(ranked) - 1)]
            pool.append(({"kind": "match_phrase", "text": f"{a} {b}", "k": k},
                         {"kind": "phrase", "terms": [a, b], "offsets": [0, 1], "k": k}))
        return pool


def _build(src: str, out: str, docs_per_partition: int):
    from elasticsearch_ray.index.fast_build import build_index_tasks

    return build_index_tasks(src, out, **{**CLI_BUILD_OPTIONS,
                                          "docs_per_partition": docs_per_partition})


def _run_pool(ctx, searcher, pool, oracle, timings, tag: str, merged: bool = False):
    """One checked pass of the pool; returns the answers. After a merge a
    wrong phrase answer is the known fault F2."""
    answers = []
    for q, spec in pool:
        with ctx.tracer.span("search.engine.search", kind=spec["kind"]):
            (ids, sc), dt = timed(searcher.search, q)
        timings.append((spec["kind"], dt))
        answers.append((ids, sc))
        ctx.op(same_ranking(ids, sc, *oracle.search(spec)) and non_increasing(sc),
               f"ingest {tag}: {q} differs from the oracle",
               fault="F2" if merged and spec["kind"] == "phrase" else None)
    return answers


def seeded_round(ctx, plan: IngestPlan, rec: dict, name: str) -> None:
    from elasticsearch_ray.index.manifest import committed_segments, index_stats, live_segments
    from elasticsearch_ray.index.merge import force_merge
    from elasticsearch_ray.search.engine import IndexSearcher
    from elasticsearch_ray.stages.tokenize import sample_hot_terms

    src, idx = ctx.path(name, "src"), ctx.path(name, "idx")
    # row groups of exactly one partition: a partition left part-full would
    # make the next append meet F1
    plan.base.write(os.path.join(src, "part-00000.parquet"), row_group_size=BATCH)
    oracle = Bm25Oracle()
    oracle.add(0, plan.base.indexed_streams())
    with ctx.tracer.span("index.build", docs=len(plan.base)):
        st = _build(src, idx, BATCH)
    if rec.get("hot_changed") is not None:
        hot = sample_hot_terms(src, analyzer=CLI_BUILD_OPTIONS["analyzer"])
    ctx.op(st.doc_count == oracle.n_docs and st.sum_doc_len == oracle.sum_doc_len,
           f"ingest base stats {st.doc_count}/{st.sum_doc_len}")
    answers = None
    for k, batch in enumerate(plan.appends):
        batch.write(os.path.join(src, f"part-{k + 1:05d}.parquet"), row_group_size=BATCH)
        oracle.add(batch.lo, batch.indexed_streams())
        ctx.tracer.new_trace()
        with ctx.tracer.span("index.build.append", docs=len(batch)):
            st, dt = timed(_build, src, idx, BATCH)
        rec["append_s"].append(dt)
        ctx.op(st.doc_count == oracle.n_docs and st.sum_doc_len == oracle.sum_doc_len,
               f"ingest append {k} stats {st.doc_count}/{st.sum_doc_len}")
        if rec.get("hot_changed") is not None:
            rec["hot_changed"] += sample_hot_terms(
                src, analyzer=CLI_BUILD_OPTIONS["analyzer"]) != hot
        with ctx.tracer.span("search.engine.load"):
            searcher, dt = timed(IndexSearcher, idx)
        rec["refresh_s"].append(dt)
        answers = _run_pool(ctx, searcher, plan.pool, oracle, rec["query"], f"append {k}")
        ids = searcher.search({"kind": "term", "term": _marker(k), "k": 10 * BATCH})[0]
        ctx.op(np.array_equal(np.sort(ids), np.arange(batch.lo, batch.hi)),
               f"ingest append {k}: marker returns {len(ids)} docs, not its batch")
        ctx.checkpoint()
    if rec.get("pre_merge") is not None:
        _run_pool(ctx, searcher, plan.pool, oracle, rec["pre_merge"], "pre-merge")
    segments_in = len(live_segments(committed_segments(idx)))
    with ctx.tracer.span("index.merge", docs=oracle.n_docs):
        merged, dt = timed(force_merge, idx)
    rec["merge_s"].append(dt)
    rec["merge_docs"] = oracle.n_docs
    rec["merged_bytes"] = sum(dir_bytes(os.path.join(idx, m), "postings") for m in merged)
    rec["segments_in"] = segments_in
    st = index_stats(idx)
    ctx.op(st.doc_count == oracle.n_docs and st.sum_doc_len == oracle.sum_doc_len,
           f"ingest merge stats {st.doc_count}/{st.sum_doc_len}")
    searcher = IndexSearcher(idx)
    final = _run_pool(ctx, searcher, plan.pool, oracle, [], "post-merge", merged=True)
    if rec.get("post_merge") is not None:
        _run_pool(ctx, searcher, plan.pool, oracle, rec["post_merge"], "post-merge",
                  merged=True)
    for (q, spec), (ids, sc), (ids0, sc0) in zip(plan.pool, final, answers):
        ctx.op(np.array_equal(ids, ids0) and np.array_equal(sc, sc0),
               f"ingest: merge changed the answer to {q}",
               fault="F2" if spec["kind"] == "phrase" else None)
    for k, batch in enumerate(plan.appends):
        ids = searcher.search({"kind": "term", "term": _marker(k), "k": 10 * BATCH})[0]
        ctx.op(np.array_equal(np.sort(ids), np.arange(batch.lo, batch.hi)),
               f"ingest post-merge: marker {k} returns {len(ids)} docs")
    shutil.rmtree(ctx.path(name))


# ---------------- fixed fault scenario (independent of --seed) ----------------

FAULT_PARTITION = 400
_FAULT_WORDS = ("alpha", "beta", "gamma", "delta", "node", "leaf", "root", "scan")
_FAULT_QUERIES = (
    ({"kind": "match_phrase", "text": "def tree", "k": 1000},
     {"kind": "phrase", "terms": ["def", "tree"], "offsets": [0, 1], "k": 1000}),
    ({"kind": "term", "term": "tree", "k": 1000},
     {"kind": "term", "terms": ["tree"], "k": 1000}),
    ({"kind": "match_phrase", "text": "alpha delta", "k": 1000},
     {"kind": "phrase", "terms": ["alpha", "delta"], "offsets": [0, 1], "k": 1000}),
)


def _fault_slice(lo: int, n: int, phrase_every: int, marker: str | None = None):
    """Fixed documents: eight words in a rotating order, with the phrase
    'def tree' planted in every `phrase_every`-th doc."""
    texts = []
    for i in range(lo, lo + n):
        w = [_FAULT_WORDS[(i * 7 + j * 3) % len(_FAULT_WORDS)] for j in range(6)]
        if i % phrase_every == 0:
            w[2:2] = ["def", "tree"]
        if marker is not None:
            w.append(marker)
        texts.append(" ".join(w))
    return texts


def _write_fixed(path: str, lo: int, texts: list[str]) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = len(texts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(pa.table({
        "repo": ["fixed/repo"] * n, "path": [f"f{lo + j}.py" for j in range(n)],
        "commit": ["0" * 40] * n, "lang": ["python"] * n, "content": texts}), path)


def fault_round(ctx, name: str) -> None:
    from elasticsearch_ray.index.merge import force_merge
    from elasticsearch_ray.search.engine import IndexSearcher

    P = FAULT_PARTITION
    src, idx = ctx.path(name, "f2src"), ctx.path(name, "f2idx")
    oracle = Bm25Oracle()
    # F2: 'tree' is in the sampled hot set of the first build (1 doc in 8) and
    # not in that of the second (the new file has it in 1 doc in 100)
    for fi, every in enumerate((8, 100)):
        texts = _fault_slice(fi * P, P, every)
        _write_fixed(os.path.join(src, f"part-{fi:05d}.parquet"), fi * P, texts)
        oracle.add(fi * P, [(t.split(), list(range(len(t.split())))) for t in texts])
        _build(src, idx, P)
    searcher = IndexSearcher(idx)
    for q, spec in _FAULT_QUERIES:
        ids, sc = searcher.search(q)
        ctx.op(same_ranking(ids, sc, *oracle.search(spec)), f"fault scenario pre-merge {q}")
    force_merge(idx)
    searcher = IndexSearcher(idx)
    for q, spec in _FAULT_QUERIES:
        ids, sc = searcher.search(q)
        ctx.op(same_ranking(ids, sc, *oracle.search(spec)), f"fault scenario post-merge {q}",
               fault="F2" if q.get("text") == "def tree" else None)
    # F1: a file appended after a partition that was not full (CLI default
    # partition size) is skipped by the resume step
    src, idx = ctx.path(name, "f1src"), ctx.path(name, "f1idx")
    for fi, marker in enumerate(("fxone", "fxtwo")):
        lo = fi * 100
        _write_fixed(os.path.join(src, f"part-{fi:05d}.parquet"), lo,
                     _fault_slice(lo, 100, 1000, marker))
        st = _build(src, idx, CLI_BUILD_OPTIONS["docs_per_partition"])
        ids = IndexSearcher(idx).search({"kind": "term", "term": marker, "k": 1000})[0]
        ctx.op(st.doc_count == lo + 100
               and np.array_equal(np.sort(ids), np.arange(lo, lo + 100)),
               f"fault scenario: appended file {fi} not visible ({st.doc_count} docs)",
               fault="F1" if fi == 1 else None)
    shutil.rmtree(ctx.path(name))


def _new_record(detail: bool) -> dict:
    rec = {"append_s": [], "refresh_s": [], "query": [], "merge_s": []}
    if detail:
        rec.update(hot_changed=0, pre_merge=[], post_merge=[])
    return rec


def run(ctx) -> None:
    plan = IngestPlan(ctx.seed)
    rec = _new_record(detail=False)
    fault_round(ctx, "warm")  # worker start-up: builds, merge and searcher
    ctx.start_window()
    for n in ctx.rounds():
        ctx.tracer.new_trace()
        seeded_round(ctx, plan, rec, f"round{n}")
        ctx.tracer.new_trace()
        with ctx.tracer.span("ingest.fault_scenario"):
            fault_round(ctx, f"fault{n}")
        ctx.checkpoint()
    ctx.metrics["work_per_s"] = BATCH / median(rec["append_s"])
    ctx.metrics["op_p50_ms"] = 1000.0 * median([dt for _, dt in rec["query"]])


def layers(ctx) -> None:
    plan = IngestPlan(ctx.seed)
    rec = _new_record(detail=True)
    seeded_round(ctx, plan, rec, "layers-ingest")
    m = ctx.metrics
    m["index.build.append_s"] = median(rec["append_s"])
    m["index.build.hot_terms_changed"] = rec["hot_changed"]
    m["ingest.search.engine.load_s"] = median(rec["refresh_s"])
    m["index.merge.s"] = rec["merge_s"][0]
    m["index.merge.docs_per_s"] = rec["merge_docs"] / rec["merge_s"][0]
    m["index.merge.segments_in"] = rec["segments_in"]
    m["index.merge.bytes_rewritten"] = rec["merged_bytes"]
    for phase in ("pre_merge", "post_merge"):
        for kind in BURST_KINDS:
            m[f"ingest.search.engine.kernel_ms.{kind}.{phase}"] = 1000.0 * median(
                [dt for k, dt in rec[phase] if k == kind])

