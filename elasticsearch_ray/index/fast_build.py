"""Task-shuffle build path: the same tokenize -> bucket -> encode semantics as
build.py's Dataset pipeline, shuffled with raw Ray tasks.

Why this exists: the logical plan IS `groupby(bucket)` — and build.py expresses
it that way — but Ray Data's sort-based all-to-all carries seconds of fixed
cost per execution (boundary sampling + two task waves + block re-blocking),
measured at 10-20x the actual CPU time for partition-sized inputs (see
BASELINE.md). This path implements the identical exchange as a classic
map-reduce: each tokenize task returns B per-bucket Arrow tables
(`num_returns=B`, one object per bucket), each encode task gathers exactly its
bucket's objects, encodes, and writes its own parquet shard. Zero barriers
beyond the inherent map->reduce dependency; the object store still does the
data movement, so multi-node behavior is the same shape.

Equivalence with the Dataset path is asserted in tests (identical postings).
"""

from __future__ import annotations

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
    buckets = t["bucket"].to_numpy()
    order = np.argsort(buckets, kind="stable")
    t = t.take(pa.array(order))
    buckets = buckets[order]
    cuts = np.searchsorted(buckets, np.arange(num_buckets + 1))
    out = [t.slice(int(cuts[b]), int(cuts[b + 1] - cuts[b])) for b in range(num_buckets)]
    return out[0] if num_buckets == 1 else tuple(out)


def _encode_bucket_task(out_path: str, hot_terms: frozenset, *tables: pa.Table):
    """Ray task body: gather one bucket's triples, encode, write its shard.
    Returns (rows, sum_tf, n_cold_terms, hot_terms_present) so the manifest
    needs no rescan: cold terms are bucket-partitioned (exact sum), hot terms
    may span buckets (deduped by union at the driver)."""
    tables = [t for t in tables if t is not None and len(t)]
    if not tables:
        return 0, 0, 0, []
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
            len(terms) - len(hot_present), hot_present)


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
    """Task-shuffle twin of build.py:build_index (same layout + manifests)."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    clean_tmp(out_dir)
    frags = plan_fragments(input_path)
    parts = plan_partitions(frags, docs_per_partition)
    done = committed_segments(out_dir)
    if hot_terms is None:
        hot_terms = sample_hot_terms(
            input_path, analyzer=analyzer, hot_df_ratio=hot_df_ratio,
            content_column=content_column,
        )
    chunk_range = max(1, docs_per_partition // salt_chunks)

    tok_task = ray.remote(num_returns=num_buckets, num_cpus=1)(_tokenize_group)
    enc_task = ray.remote(num_cpus=1)(_encode_bucket_task)

    pending = [(sid, sf) for sid, sf in parts if sid not in done]

    def submit(seg_id, seg_frags):
        tmp = tmp_segment_dir(out_dir, seg_id)
        os.makedirs(os.path.join(tmp, "postings"), exist_ok=True)
        cfg = dict(
            analyzer=analyzer,
            docmeta_dir=os.path.join(tmp, "docmeta"),
            hot_terms=hot_terms,
            num_buckets=num_buckets,
            chunk_range=chunk_range,
            index_positions=index_positions,
            content_column=content_column,
            meta_columns=meta_columns,
            extra_content_columns=extra_content_columns,
        )
        per_bucket: list[list] = [[] for _ in range(num_buckets)]
        fdicts = [f.to_dict() for f in seg_frags]
        for i in range(0, len(fdicts), frags_per_task):
            outs = tok_task.remote(fdicts[i : i + frags_per_task], cfg, num_buckets)
            if num_buckets == 1:
                outs = [outs]
            for b, r in enumerate(outs):
                per_bucket[b].append(r)
        # encode tasks hold the only references to the tokenize outputs:
        # once an encode finishes, its bucket's token triples are freed
        return [
            enc_task.remote(
                os.path.join(tmp, "postings", f"bucket-{b:05d}.parquet"),
                hot_terms, *per_bucket[b]
            )
            for b in range(num_buckets)
        ]

    # Bounded in-flight window (the 100-TB-critical property): submitting
    # every partition's task graph up front parks the ENTIRE corpus's
    # exploded token triples in the object store at once — measured at
    # 800k docs (80 partitions, 25,600 bucket objects) the store spills
    # and throughput collapses ~3x vs the 100k run. A sliding window of
    # W partitions keeps cross-partition pipelining (tokenize of partition
    # k+1 overlaps encode of partition k) while bounding live shuffle
    # bytes to W x partition size, independent of corpus size. Commits
    # stay FIFO so resume semantics are unchanged.
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    # measured tuning (BASELINE.md): window 4 left tail partitions starved
    # of overlap (800k: 54 s); window 8 matches unbounded at 100k (within
    # noise) and runs 800k at 33.4 s / 23.9k files/s — live exploded bytes
    # stay bounded at window x partition size regardless of corpus size
    window = int(os.environ.get("ESRAY_INFLIGHT_PARTITIONS", "0")) or max(
        4, min(12, (ncpu * 4) // max(1, num_buckets) + 4))
    from .manifest import SegmentManifest

    in_flight: list[tuple] = []  # (seg_id, seg_frags, enc_refs, t0)
    next_i = 0
    while next_i < len(pending) or in_flight:
        while next_i < len(pending) and len(in_flight) < window:
            sid, sf = pending[next_i]
            in_flight.append((sid, sf, submit(sid, sf), time.time()))
            next_i += 1
        seg_id, seg_frags, enc_refs, t0 = in_flight.pop(0)
        results = ray.get(enc_refs)
        tmp = tmp_segment_dir(out_dir, seg_id)
        hot_union: set[str] = set()
        for _, _, _, hp in results:
            hot_union.update(hp)
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
        })
        if verbose:
            print(f"[fast-build] {seg_id}: {manifest.doc_count} docs "
                  f"{manifest.build_seconds:.1f}s")
    return index_stats(out_dir)
