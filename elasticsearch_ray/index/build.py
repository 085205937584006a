"""Partitioned, resumable inverted-index build (SURVEY.md §7 steps 2-3, 6-7).

One *partition* = a consecutive run of input fragments (row groups) -> one
committed *segment*:

    fragments -> map_batches(TokenizeFragments, actor pool)   # analyze+explode
              -> groupby("bucket")                            # the term shuffle
              -> map_groups(encode_bucket)                    # posting encode
              -> write postings parquet                       # segment writer
    + docmeta side-written per fragment, manifest committed atomically.

Partitions build independently (resume = skip committed manifests), which is
also the 100 TB story: each partition's shuffle is bounded (docs_per_partition
* avg tokens), many partitions stream through the cluster, and the tiered
merge stage (merge.py) compacts segments exactly like the reference's merge
policy (index/MergePolicyConfig.java:123-130). Doc ids are globally dense and
deterministic (fragment offsets), so rebuilds are byte-identical.

Skew: hot terms (sampled Zipf head) are range-salted into per-chunk posting
rows — see stages/tokenize.py docstring.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterable

import pyarrow as pa
import pyarrow.dataset as pads

from ..sources.reader import Fragment, plan_fragments
from ..stages.encode import encode_bucket
from ..stages.tokenize import TokenizeFragments, make_tokenizer_fn, sample_hot_terms
from .manifest import (
    IndexStats,
    SegmentManifest,
    clean_tmp,
    commit_segment,
    committed_segments,
    index_stats,
    tmp_segment_dir,
    write_build_log,
)

# Partition size is a MEMORY bound, not a parallelism dial: a partition's
# in-flight triple table is ~40-60 KB per doc with positions, so 25k docs
# keeps each tokenize task's working set near 1 GB. The round-3 size probe
# (BASELINE.md) measured fixed 10k-doc partitions fastest on a 32-CPU /
# 128 GB node; keep partitions CONSTANT-SIZE as the corpus grows — at
# 10^12 files that is ~10^7-10^8 tasks, fine for Ray's scheduler when
# submitted in streaming waves, and per-task memory never grows.
DEFAULT_DOCS_PER_PARTITION = 25_000


def plan_partitions(
    frags: list[Fragment],
    docs_per_partition: int,
    committed: Iterable[SegmentManifest] = (),
) -> list[tuple[str, list[Fragment]]]:
    """Group consecutive fragments into build partitions; the partition id is
    derived from the doc_id range so it is stable across runs.

    Fragments that a `committed` manifest lists are left out, and no
    partition spans one, so a resumed build replans exactly the missing
    partitions and a file appended after a part-full partition starts a
    partition of its own instead of reusing the committed partition's id."""
    listed = {f["offset"] for m in committed for f in m.fragments}
    parts: list[tuple[str, list[Fragment]]] = []
    cur: list[Fragment] = []
    n = 0
    for f in frags:
        if f.offset not in listed:
            cur.append(f)
            n += f.num_rows
        if cur and (f.offset in listed or n >= docs_per_partition):
            parts.append((f"seg_{cur[0].offset:012d}", cur))
            cur, n = [], 0
    if cur:
        parts.append((f"seg_{cur[0].offset:012d}", cur))
    return parts


def build_index(
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
    tokenize_concurrency: int | tuple[int, int] | None = None,
    content_column: str = "content",
    meta_columns: tuple[str, ...] = ("repo", "path", "commit", "lang"),
    extra_content_columns: tuple[str, ...] = (),
    store_offsets_column: str | None = None,
    verbose: bool = False,
) -> IndexStats:
    """Build (or resume building) the inverted index at out_dir.

    `store_offsets_column`: designate ONE highlight field whose per-token
    CHARACTER OFFSETS are derived once at index time and stored as an
    `offsets/` parquet sidecar (doc_id, starts, ends) — the term-vector
    `with_offsets` analog (Lucene FieldType.storeTermVectorOffsets). The
    fvh highlighter then maps stored positions to spans with a pruned
    point read instead of re-tokenizing each hit doc at fetch time."""
    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)
    clean_tmp(out_dir)
    frags = plan_fragments(input_path)
    parts = plan_partitions(frags, docs_per_partition,
                            committed_segments(out_dir).values())

    if hot_terms is None:
        hot_terms = sample_hot_terms(
            input_path, analyzer=analyzer, hot_df_ratio=hot_df_ratio,
            content_column=content_column,
        )
    # range-salt chunk size: hot terms split into ~salt_chunks ranges/partition
    chunk_range = max(1, docs_per_partition // salt_chunks)

    for seg_id, seg_frags in parts:
        t0 = time.time()
        tmp = tmp_segment_dir(out_dir, seg_id)
        os.makedirs(tmp, exist_ok=True)
        docmeta_dir = os.path.join(tmp, "docmeta")

        items = rd.from_items(
            [f.to_dict() for f in seg_frags], override_num_blocks=len(seg_frags)
        )
        tokenize_kwargs = dict(
            analyzer=analyzer,
            docmeta_dir=docmeta_dir,
            hot_terms=hot_terms,
            num_buckets=num_buckets,
            chunk_range=chunk_range,
            index_positions=index_positions,
            content_column=content_column,
            meta_columns=meta_columns,
            extra_content_columns=extra_content_columns,
        )
        if tokenize_concurrency is not None:
            # explicit actor pool (state amortized per actor)
            triples = items.map_batches(
                TokenizeFragments,
                max_restarts=0,
                fn_constructor_kwargs=tokenize_kwargs,
                batch_format="numpy",
                batch_size=1,
                concurrency=tokenize_concurrency,
            )
        else:
            # default: plain tasks + per-worker-process cached tokenizer —
            # same amortization, no actor-pool spin-up per partition
            triples = items.map_batches(
                make_tokenizer_fn(**tokenize_kwargs),
                batch_format="numpy",
                batch_size=1,
            )
        postings = triples.groupby("bucket").map_groups(
            encode_bucket, batch_format="pyarrow"
        )
        postings.write_parquet(os.path.join(tmp, "postings"))

        manifest = _summarize(tmp, seg_id, seg_frags, analyzer, index_positions, t0)
        commit_segment(out_dir, seg_id, manifest)
        write_build_log(
            out_dir,
            {
                "segment": seg_id,
                "docs": manifest.doc_count,
                "terms": manifest.term_count,
                "tokens": manifest.sum_doc_len,
                "seconds": manifest.build_seconds,
                "docs_per_sec": manifest.doc_count / max(manifest.build_seconds, 1e-9),
            },
        )
        if verbose:
            print(
                f"[build] {seg_id}: {manifest.doc_count} docs, "
                f"{manifest.term_count} terms, {manifest.build_seconds:.1f}s"
            )
    if store_offsets_column is not None:
        _write_offsets_sidecar(input_path, out_dir, store_offsets_column)
    return index_stats(out_dir)


def _write_offsets_sidecar(input_path, out_dir: str, content_column: str,
                           id_column: str = "doc_id") -> None:
    """One extra column-pruned scan writing (doc_id, starts, ends) per doc
    for the designated highlight field — `simple`-analyzer spans
    ([a-z0-9]+ runs over the lowercased text, matching analyze_simple's
    token stream position-for-position). Resumable: committed via marker
    like the segments."""
    import re

    import ray.data as rd

    off_dir = os.path.join(out_dir, "offsets")
    marker = os.path.join(off_dir, "_COMMITTED")
    if os.path.exists(marker):
        return
    rx = re.compile(r"[a-z0-9]+")

    def spans(t: pa.Table) -> pa.Table:
        starts, ends = [], []
        for txt in t[content_column].to_pylist():
            sp = [m.span() for m in rx.finditer(txt.lower())]
            starts.append([a for a, _ in sp])
            ends.append([b for _, b in sp])
        return pa.table({
            id_column: t[id_column].cast(pa.int64()),
            "starts": pa.array(starts, pa.list_(pa.int32())),
            "ends": pa.array(ends, pa.list_(pa.int32())),
        })

    os.makedirs(off_dir, exist_ok=True)
    (rd.read_parquet(input_path, columns=[id_column, content_column])
     .map_batches(spans, batch_format="pyarrow")
     .write_parquet(off_dir))
    with open(marker, "w") as f:
        f.write("ok")


def _summarize(
    tmp: str,
    seg_id: str,
    seg_frags: list[Fragment],
    analyzer: str,
    index_positions: bool,
    t0: float,
) -> SegmentManifest:
    """Cheap projected scans of the freshly written segment for manifest stats."""
    meta = pads.dataset(os.path.join(tmp, "docmeta")).to_table(columns=["doc_id", "doc_len"])
    post = pads.dataset(os.path.join(tmp, "postings")).to_table(columns=["term"])
    import pyarrow.compute as pc

    n_terms = pc.count_distinct(post["term"]).as_py() if len(post) else 0
    doc_ids = meta["doc_id"].to_numpy()
    return SegmentManifest(
        segment_id=seg_id,
        fragments=[f.to_dict() for f in seg_frags],
        doc_count=len(meta),
        sum_doc_len=int(meta["doc_len"].to_numpy().sum()),
        term_count=int(n_terms),
        doc_id_min=int(doc_ids.min()),
        doc_id_max=int(doc_ids.max()),
        analyzer=analyzer,
        index_positions=index_positions,
        build_seconds=time.time() - t0,
    )
