"""Task-shuffle build path: the same tokenize -> bucket -> encode semantics as
build.py's Dataset pipeline, shuffled with raw Ray tasks.

Why this exists: the logical plan IS `groupby(bucket)` — and build.py expresses
it that way — but Ray Data's sort-based all-to-all carries seconds of fixed
cost per execution (boundary sampling + two task waves + block re-blocking),
measured at 10-20x the actual CPU time for partition-sized inputs (see
BASELINE.md). This path implements the identical exchange as a classic
map-reduce: each tokenize task returns w per-bucket Arrow tables
(`num_returns=w`, one object per bucket), each encode task gathers exactly its
bucket's objects, encodes, and writes its own parquet shard. Zero barriers
beyond the inherent map->reduce dependency; the object store still does the
data movement, so multi-node behavior is the same shape.

Exchange width: `num_buckets` is the most buckets a partition gets. Each
partition uses `w = exchange_width(num_buckets, partition_docs, cluster_CPUs)`
= min(num_buckets, max(CPUs, ceil(partition_docs / _DOCS_PER_BUCKET))).
Buckets beyond the CPU count cannot encode at once, so they would only add
tasks, objects and postings files; and no bucket gets more docs than one
bucket of a full CLI-default partition (250k docs over 32 buckets), so an
encode task's memory stays within what it was at a fixed 32. Postings rows
are per (term, chunk) whatever the width, so the index content does not
depend on it; only the number of postings files does.

Equivalence with the Dataset path is asserted in tests (identical postings).
"""

from __future__ import annotations

import functools
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.reader import plan_fragments
from ..stages.encode import encode_bucket
from ..stages.tokenize import TokenizeFragments, sample_hot_terms
from .build import DEFAULT_DOCS_PER_PARTITION, plan_partitions
from .manifest import (
    IndexStats,
    clean_tmp,
    commit_segment,
    committed_segments,
    index_stats,
    tmp_segment_dir,
    write_build_log,
)


# One bucket of a full partition at the `cli build` defaults
# (--docs-per-partition 250000 over 32 buckets): the most docs the width rule
# gives one encode task.
_DOCS_PER_BUCKET = 250_000 // 32


def exchange_width(num_buckets: int, partition_docs: int, cpus: int) -> int:
    """Buckets in one partition's exchange: one per CPU, more when a bucket
    would otherwise hold over _DOCS_PER_BUCKET docs, at most num_buckets."""
    need = max(cpus, -(-partition_docs // _DOCS_PER_BUCKET))
    return max(1, min(num_buckets, need))


def _tokenize_group(frag_dicts: list[dict], cfg: dict, num_buckets: int):
    """Ray task body: tokenize a group of fragments, split triples by bucket.
    Returns num_buckets tables (one object each via num_returns); with one
    bucket the table itself, since num_returns=1 stores whatever the task
    returns as its single object."""
    tok = TokenizeFragments(**cfg)
    tables = []
    for fd in frag_dicts:
        batch = {k: np.array([fd[k]]) for k in ("path", "row_group", "offset", "num_rows")}
        tables.extend(tok(batch))
    t = pa.concat_tables(tables) if len(tables) > 1 else tables[0]
    if num_buckets == 1:
        return t
    buckets = t["bucket"].to_numpy()
    order = np.argsort(buckets, kind="stable")
    t = t.take(pa.array(order))
    buckets = buckets[order]
    cuts = np.searchsorted(buckets, np.arange(num_buckets + 1))
    return tuple(t.slice(int(cuts[b]), int(cuts[b + 1] - cuts[b]))
                 for b in range(num_buckets))


def _encode_bucket_task(out_path: str, hot_terms: frozenset, *tables: pa.Table):
    """Ray task body: gather one bucket's triples, encode, write its shard.
    Returns (rows, sum_tf, n_cold_terms, hot_terms_present, seconds) so the
    manifest needs no rescan: cold terms are bucket-partitioned (exact sum),
    hot terms may span buckets (deduped by union at commit)."""
    t0 = time.perf_counter()
    tables = [t for t in tables if t is not None and len(t)]
    if not tables:
        return 0, 0, 0, [], time.perf_counter() - t0
    t = pa.concat_tables(tables)
    enc = encode_bucket(t)
    pq.write_table(enc, out_path + ".tmp", row_group_size=4096)
    os.replace(out_path + ".tmp", out_path)
    terms = set(map(str, np.asarray(enc["term"])))
    hot_present = sorted(terms & hot_terms)
    # sum_doc_len counts MAIN-field tokens only: extra-field postings carry
    # field-qualified keys (\x1f separator) and have their own norms.
    # Arrow match_substring instead of a numpy str conversion: the term
    # column has millions of rows per bucket and astype(str) was ~half the
    # non-encode task time.
    import pyarrow.compute as pc

    main_mask = pc.invert(pc.match_substring(t["term"], "\x1f"))
    main_tf = pc.sum(pc.if_else(main_mask, t["tf"], pa.scalar(0, t["tf"].type)))
    return (len(enc), int(main_tf.as_py() or 0),
            len(terms) - len(hot_present), hot_present,
            time.perf_counter() - t0)


@functools.cache
def _remote_tasks():
    """The two task bodies as Ray remote functions, defined once per process
    so that each build call does not export them again."""
    import ray

    return (ray.remote(num_cpus=1)(_tokenize_group),
            ray.remote(num_cpus=1)(_encode_bucket_task))


def build_index_tasks(
    input_path: str | list[str],
    out_dir: str,
    *,
    analyzer: str = "code",
    index_positions: bool = True,
    docs_per_partition: int = DEFAULT_DOCS_PER_PARTITION,
    num_buckets: int = 32,
    hot_terms: frozenset[str] | None = None,
    hot_df_ratio: float = 0.10,
    salt_chunks: int = 8,
    frags_per_task: int = 2,
    content_column: str = "content",
    meta_columns: tuple[str, ...] = ("repo", "path", "commit", "lang"),
    extra_content_columns: tuple[str, ...] = (),
    verbose: bool = False,
) -> IndexStats:
    """Task-shuffle twin of build.py:build_index (same layout + manifests).
    `num_buckets` is the most buckets one partition's exchange uses; see
    exchange_width."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    clean_tmp(out_dir)
    frags = plan_fragments(input_path)
    pending = plan_partitions(frags, docs_per_partition,
                              committed_segments(out_dir).values())
    if hot_terms is None:
        hot_terms = sample_hot_terms(
            input_path, analyzer=analyzer, hot_df_ratio=hot_df_ratio,
            content_column=content_column,
        )
    chunk_range = max(1, docs_per_partition // salt_chunks)
    tok_task, enc_task = _remote_tasks()
    ncpu = int(ray.cluster_resources().get("CPU", 8))

    def submit(seg_id, seg_frags):
        """Submit one partition's tasks; returns (encode refs, width,
        tokenize task count)."""
        w = exchange_width(num_buckets, sum(f.num_rows for f in seg_frags), ncpu)
        tmp = tmp_segment_dir(out_dir, seg_id)
        os.makedirs(os.path.join(tmp, "postings"), exist_ok=True)
        cfg = dict(
            analyzer=analyzer,
            docmeta_dir=os.path.join(tmp, "docmeta"),
            hot_terms=hot_terms,
            num_buckets=w,
            chunk_range=chunk_range,
            index_positions=index_positions,
            content_column=content_column,
            meta_columns=meta_columns,
            extra_content_columns=extra_content_columns,
        )
        tok_w = tok_task.options(num_returns=w)
        per_bucket: list[list] = [[] for _ in range(w)]
        fdicts = [f.to_dict() for f in seg_frags]
        n_tok = 0
        for i in range(0, len(fdicts), frags_per_task):
            outs = tok_w.remote(fdicts[i : i + frags_per_task], cfg, w)
            if w == 1:
                outs = [outs]
            for b, r in enumerate(outs):
                per_bucket[b].append(r)
            n_tok += 1
        # encode tasks hold the only references to the tokenize outputs:
        # once an encode finishes, its bucket's token triples are freed
        enc_refs = [
            enc_task.remote(
                os.path.join(tmp, "postings", f"bucket-{b:05d}.parquet"),
                hot_terms, *per_bucket[b]
            )
            for b in range(w)
        ]
        return enc_refs, w, n_tok

    # Bounded in-flight window (the 100-TB-critical property): submitting
    # every partition's task graph up front parks the ENTIRE corpus's
    # exploded token triples in the object store at once — measured at
    # 800k docs (80 partitions, 25,600 bucket objects) the store spills
    # and throughput collapses ~3x vs the 100k run. A sliding window of
    # W partitions keeps cross-partition pipelining (tokenize of partition
    # k+1 overlaps encode of partition k) while bounding live shuffle
    # bytes to W x partition size, independent of corpus size. Commits
    # stay FIFO so resume semantics are unchanged.
    # measured tuning (BASELINE.md): window 4 left tail partitions starved
    # of overlap (800k: 54 s); window 8 matches unbounded at 100k (within
    # noise) and runs 800k at 33.4 s / 23.9k files/s — live exploded bytes
    # stay bounded at window x partition size regardless of corpus size.
    # The window is sized from the requested num_buckets, not the per-
    # partition width, so live shuffle bytes do not move with the width.
    window = int(os.environ.get("ESRAY_INFLIGHT_PARTITIONS", "0")) or max(
        4, min(12, (ncpu * 4) // max(1, num_buckets) + 4))
    from .manifest import SegmentManifest

    in_flight: list[tuple] = []  # (seg_id, seg_frags, (enc_refs, w, n_tok), t0)
    next_i = 0
    while next_i < len(pending) or in_flight:
        while next_i < len(pending) and len(in_flight) < window:
            sid, sf = pending[next_i]
            in_flight.append((sid, sf, submit(sid, sf), time.time()))
            next_i += 1
        seg_id, seg_frags, (enc_refs, width, n_tok), t0 = in_flight.pop(0)
        results = ray.get(enc_refs)
        hot_union: set[str] = set()
        for r in results:
            hot_union.update(r[3])
        manifest = SegmentManifest(
            segment_id=seg_id,
            fragments=[f.to_dict() for f in seg_frags],
            doc_count=sum(f.num_rows for f in seg_frags),
            sum_doc_len=sum(r[1] for r in results),
            term_count=sum(r[2] for r in results) + len(hot_union),
            doc_id_min=seg_frags[0].offset,
            doc_id_max=seg_frags[-1].offset + seg_frags[-1].num_rows - 1,
            analyzer=analyzer,
            index_positions=index_positions,
            build_seconds=time.time() - t0,
        )
        commit_segment(out_dir, seg_id, manifest)
        write_build_log(out_dir, {
            "segment": seg_id, "docs": manifest.doc_count,
            "terms": manifest.term_count, "tokens": manifest.sum_doc_len,
            "seconds": manifest.build_seconds,
            "docs_per_sec": manifest.doc_count / max(manifest.build_seconds, 1e-9),
            "path": "tasks",
            "buckets": width, "tokenize_tasks": n_tok,
            "encode_s": sum(r[4] for r in results),
        })
        if verbose:
            print(f"[fast-build] {seg_id}: {manifest.doc_count} docs "
                  f"{width} buckets {manifest.build_seconds:.1f}s")
    return index_stats(out_dir)
