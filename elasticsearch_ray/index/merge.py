"""Tiered segment merge (SURVEY.md §7 step 5).

Policy constants mirror the reference's tiered merge policy defaults
(index/MergePolicyConfig.java:123-130,150-151): at most `segments_per_tier`
(10) live segments per size tier, merges pick up to `max_merge_at_once` (10)
smallest live segments, segments above `max_merged_docs` don't participate
(the 5GB max-merged-segment analog, expressed in docs here), with merges
scheduled like ElasticsearchConcurrentMergeScheduler but as Ray tasks.

Merging is cheap relative to a rebuild because doc ranges of input segments
are disjoint and ordered: each term's encoded rows simply concatenate in doc
order and re-encode (no re-sort of postings, no re-tokenization). Hot-term
salt chunks are preserved: only doc-adjacent rows of the same (term, chunk)
fuse, so a merged segment keeps the bounded row size the build produced, and
rows of one term never overlap, even when the inputs were built with
different hot-term sets.

The re-encode runs on the build's exchange (build.py): one map task per input
postings file splits its rows by `crc32(term) % w`, and w reduce tasks each
merge one bucket's rows and write one postings file, with
`w = exchange_width(32, group_docs, CPUs)`. Per-doc norms needed for
block-min-norm metadata come from a dense norm array over the group's doc
range, put in the object store once and read by every reduce task.

Output is a new committed segment whose manifest records `merged_from`;
inputs stay on disk until `gc_merged` removes superseded segments
(soft-delete analog of the reference's deletion policy,
index/engine/CombinedDeletionPolicy.java)."""

from __future__ import annotations

import os
import shutil
import time
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

from ..sources.reader import list_parquet_files
from ..stages.encode import POSTINGS_SCHEMA, decode_bucket, encode_bucket
from .build import exchange_width, remote, split_by_bucket, submit_map
from .manifest import (
    SegmentManifest,
    commit_segment,
    committed_segments,
    live_segments,
    tmp_segment_dir,
)

SEGMENTS_PER_TIER = 10  # MergePolicyConfig.java:150 (segments_per_tier default)
MAX_MERGE_AT_ONCE = 10  # MergePolicyConfig.java:123 (max_merge_at_once default)
MERGE_BUCKETS = 32  # most buckets in one merge's exchange (see exchange_width)


def _merge_rows_table(table: pa.Table, norm_bytes: np.ndarray,
                      base: int = 0) -> pa.Table:
    """Re-encode the union of postings rows: per term, in doc order, fuse
    each run of doc-adjacent rows with the same chunk into one row.

    Rows of different chunks are never fused, and neither are two rows of
    the same chunk with another row of the term between them: a segment
    built without `tree` as a hot term stores it as one chunk-0 row over its
    whole doc range, and fusing that with another segment's chunk-0 row
    would overlap the chunk-1..k rows in between. Repeated (term, chunk)
    keys are fine, since the reader orders a term's rows by first doc.

    Single rows pass through unchanged as one `take`. The rows of every run
    decode to triples in one `decode_bucket` call, are keyed by their run
    (so `encode_bucket` fuses exactly that run) and re-encode in one
    `encode_bucket` call, after which the real chunk is put back."""
    if len(table) == 0:
        return POSTINGS_SCHEMA.empty_table()
    # a term's rows cover disjoint doc ranges, so each row's last doc (the
    # last entry of its skip_last_doc list) orders them like its first doc
    skip_last = table["skip_last_doc"].combine_chunks()
    last_doc = skip_last.values.to_numpy()[skip_last.offsets.to_numpy()[1:] - 1]
    table = table.append_column("_last_doc", pa.array(last_doc))
    order = pc.sort_indices(
        table, sort_keys=[("term", "ascending"), ("_last_doc", "ascending")]
    )
    t = table.take(order).drop_columns(["_last_doc"]).combine_chunks()
    terms = np.asarray(t["term"])
    chunks = t["chunk"].to_numpy()
    n = len(t)
    change = np.empty(n, dtype=bool)
    change[0] = True
    if n > 1:
        change[1:] = (terms[1:] != terms[:-1]) | (chunks[1:] != chunks[:-1])
    starts = np.flatnonzero(change)
    group_lens = np.diff(starts, append=n)

    single = starts[group_lens == 1]
    passthrough = t.select(POSTINGS_SCHEMA.names).take(pa.array(single)) \
        .cast(POSTINGS_SCHEMA)
    multi = group_lens > 1
    if not multi.any():
        return passthrough
    m = t.take(pa.array(np.flatnonzero(np.repeat(multi, group_lens))))
    triples = decode_bucket(m, norm_bytes, base)
    run_of_row = np.repeat(np.arange(int(multi.sum())), group_lens[multi])
    triples = triples.set_column(
        triples.schema.get_field_index("chunk"), "chunk",
        pa.array(np.repeat(run_of_row, m["df"].to_numpy()).astype(np.int32)))
    # encode_bucket orders its rows by (term, run), i.e. by run
    merged = encode_bucket(triples)
    merged = merged.set_column(
        merged.schema.get_field_index("chunk"), "chunk",
        pa.array(chunks[starts[multi]], pa.int32()))
    return pa.concat_tables([passthrough, merged])


def _split_postings_file(path: str, w: int):
    """Map task: one postings file's rows split by crc32(term) % w, hashing
    each distinct term once."""
    t = pq.read_table(path)
    if w == 1:
        return t
    terms = pc.dictionary_encode(t["term"]).combine_chunks()
    term_bucket = np.fromiter(
        (zlib.crc32(s.encode()) % w for s in terms.dictionary.to_pylist()),
        np.int32, len(terms.dictionary))
    return split_by_bucket(t, term_bucket[terms.indices.to_numpy()], w)


def _merge_bucket_task(out_path: str, norm_bytes: np.ndarray, base: int,
                       *tables: pa.Table) -> int:
    """Reduce task: merge one bucket's postings rows and write its file.
    Returns the bucket's distinct term count; buckets split by term, so the
    counts add up to the segment's."""
    tables = [t for t in tables if len(t)]
    if not tables:
        return 0
    merged = _merge_rows_table(pa.concat_tables(tables), norm_bytes, base)
    pq.write_table(merged, out_path + ".tmp", row_group_size=4096)
    os.replace(out_path + ".tmp", out_path)
    return pc.count_distinct(merged["term"]).as_py()


def merge_segments(
    index_dir: str,
    segment_ids: list[str] | None = None,
    *,
    max_merge_at_once: int = MAX_MERGE_AT_ONCE,
    max_merged_docs: int | None = None,
) -> str | None:
    """Merge a group of live segments into one; returns new segment id.
    `max_merged_docs` is the MergePolicyConfig max-merged-segment analog:
    candidate windows whose combined doc_count exceeds it are skipped
    (narrower windows are then considered)."""
    import ray

    segs = live_segments(committed_segments(index_dir))
    by_range = sorted(segs.items(), key=lambda kv: kv[1].doc_id_min)
    if segment_ids is None:
        if len(segs) < 2:
            return None
        # tiered policy over ADJACENT doc ranges: doc_ids are global and never
        # renumbered, so only consecutive segments may merge (keeps every
        # term's posting rows disjoint AND ordered). Pick the consecutive
        # window with the smallest total doc_count (smallest-first tiering).
        n = min(max_merge_at_once, len(by_range))
        best, best_docs = None, None
        for w in range(n, 1, -1):
            for i in range(len(by_range) - w + 1):
                window = by_range[i : i + w]
                docs = sum(m.doc_count for _, m in window)
                if max_merged_docs is not None and docs > max_merged_docs:
                    continue  # over the max-merged-segment budget
                if best_docs is None or docs < best_docs:
                    best, best_docs = [k for k, _ in window], docs
            if best is not None:
                break
        if best is None:
            return None  # every window exceeds max_merged_docs
        segment_ids = best
    else:
        # explicit group must be consecutive among live segments
        mins = sorted(segs[s].doc_id_min for s in segment_ids)
        in_span = [
            k
            for k, m in by_range
            if mins[0] <= m.doc_id_min <= mins[-1]
        ]
        if sorted(segment_ids) != sorted(in_span):
            raise ValueError(
                "merge group must be consecutive in doc_id range; "
                f"requested {sorted(segment_ids)} but span contains {sorted(in_span)}"
            )
    if segment_ids is None or len(segment_ids) < 2:
        return None
    group = {sid: segs[sid] for sid in segment_ids}
    flags = {(m.analyzer, m.index_positions) for m in group.values()}
    if len(flags) > 1:
        raise ValueError(
            "cannot merge segments with mixed analyzer/index_positions "
            f"settings: {sorted(flags)}")
    gen = max(m.generation for m in group.values()) + 1
    lo = min(m.doc_id_min for m in group.values())
    new_id = f"seg_{lo:012d}_g{gen}"
    tmp = tmp_segment_dir(index_dir, new_id)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(os.path.join(tmp, "docmeta"), exist_ok=True)
    t0 = time.time()

    # docmeta: copy input files (content unchanged by merge)
    for sid in segment_ids:
        src = os.path.join(index_dir, sid, "docmeta")
        for f in os.listdir(src):
            shutil.copy(os.path.join(src, f), os.path.join(tmp, "docmeta", f"{sid}-{f}"))

    # dense norm array over the group's doc range (broadcast once)
    metas = [
        pads.dataset(os.path.join(index_dir, sid, "docmeta")).to_table(
            columns=["doc_id", "norm_byte"]
        )
        for sid in segment_ids
    ]
    max_doc = max(m.doc_id_max for m in group.values())
    # dense ONLY over the group's own doc range (O(group docs), offset by
    # lo) — never O(global max doc id), which at 10^12 docs would be TBs
    norm_bytes = np.zeros(max_doc - lo + 1, dtype=np.uint8)
    for mt in metas:
        norm_bytes[mt["doc_id"].to_numpy() - lo] = \
            mt["norm_byte"].to_numpy().astype(np.uint8)
    norm_ref = ray.put(norm_bytes)

    docs = sum(m.doc_count for m in group.values())
    w = exchange_width(MERGE_BUCKETS, docs,
                       int(ray.cluster_resources().get("CPU", 8)))
    per_bucket: list[list] = [[] for _ in range(w)]
    for sid in segment_ids:
        for f in list_parquet_files(os.path.join(index_dir, sid, "postings")):
            for b, r in enumerate(submit_map(_split_postings_file, w, f)):
                per_bucket[b].append(r)
    os.makedirs(os.path.join(tmp, "postings"), exist_ok=True)
    term_counts = ray.get([
        remote(_merge_bucket_task).remote(
            os.path.join(tmp, "postings", f"bucket-{b:05d}.parquet"),
            norm_ref, lo, *per_bucket[b])
        for b in range(w)
    ])

    frag_union = [f for sid in segment_ids for f in group[sid].fragments]
    manifest = SegmentManifest(
        segment_id=new_id,
        fragments=frag_union,
        doc_count=docs,
        sum_doc_len=sum(m.sum_doc_len for m in group.values()),
        term_count=sum(term_counts),
        doc_id_min=lo,
        doc_id_max=max_doc,
        analyzer=next(iter(group.values())).analyzer,
        index_positions=next(iter(group.values())).index_positions,
        build_seconds=time.time() - t0,
        generation=gen,
        merged_from=sorted(segment_ids),
    )
    commit_segment(index_dir, new_id, manifest)
    return new_id


def force_merge(index_dir: str, max_num_segments: int = 1, **kw) -> list[str]:
    """ES `_forcemerge` analog: merge until <= max_num_segments live."""
    out = []
    while True:
        live = live_segments(committed_segments(index_dir))
        if len(live) <= max_num_segments:
            return out
        new = merge_segments(index_dir, **kw)
        if new is None:
            return out
        out.append(new)


def maybe_merge(index_dir: str, segments_per_tier: int = SEGMENTS_PER_TIER, **kw) -> list[str]:
    """Background-merge analog: merge only when the live count exceeds the
    per-tier budget."""
    out = []
    while len(live_segments(committed_segments(index_dir))) > segments_per_tier:
        new = merge_segments(index_dir, **kw)
        if new is None:
            break
        out.append(new)
    return out


def gc_merged(index_dir: str) -> list[str]:
    """Delete segments superseded by a committed merge."""
    segs = committed_segments(index_dir)
    live = live_segments(segs)
    removed = []
    for sid in segs:
        if sid not in live:
            shutil.rmtree(os.path.join(index_dir, sid), ignore_errors=True)
            removed.append(sid)
    return removed
