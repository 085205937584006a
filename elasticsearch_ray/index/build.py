"""Partitioned, resumable inverted-index build (SURVEY.md §7 steps 2-3, 6-7).

One *partition* = a consecutive run of input fragments (row groups) -> one
committed *segment*. The logical plan groups token triples by bucket:

    fragments -> TokenizeFragments            # analyze + explode to triples
              -> group by bucket              # the term shuffle
              -> encode_bucket                # posting encode
              -> write postings parquet       # segment writer
    + docmeta side-written per fragment, manifest committed atomically.

The exchange is a raw-task map-reduce of that plan, not a Ray Data group-by:
each tokenize task returns w per-bucket Arrow tables (`num_returns=w`, one
object per bucket), each encode task gathers exactly its bucket's objects,
encodes and writes its own parquet file. Ray Data's sort-based all-to-all
carried seconds of fixed cost per execution (boundary sampling, two task
waves, re-blocking), 10-20x the CPU time for partition-sized inputs
(BASELINE.md); the map-reduce has no barrier beyond map -> reduce, and the
object store still moves the data, so multi-node behaviour has the same
shape. merge.py runs its re-encode on the same exchange.

Exchange width: `num_buckets` is the most buckets a partition gets. Each
partition uses `w = exchange_width(num_buckets, partition_docs, cluster_CPUs)`
= min(num_buckets, max(CPUs, ceil(partition_docs / _DOCS_PER_BUCKET))).
Buckets beyond the CPU count cannot encode at once, so they would only add
tasks, objects and postings files; and no bucket gets more docs than one
bucket of a full CLI-default partition (250k docs over 32 buckets), so an
encode task's memory stays within what it was at a fixed 32. Postings rows
are per (term, chunk) whatever the width, so the index content does not
depend on it; only the number of postings files does.

Partitions build independently (resume = skip committed manifests), which is
also the 100 TB story: each partition's shuffle is bounded (docs_per_partition
* avg tokens), many partitions stream through the cluster in a bounded
window, and the tiered merge stage (merge.py) compacts segments like the
reference's merge policy (index/MergePolicyConfig.java:123-130). Doc ids are
globally dense and deterministic (fragment offsets), so rebuilds are
identical.

Skew: hot terms (sampled Zipf head) are range-salted into per-chunk posting
rows — see stages/tokenize.py docstring. The hot-term set is fixed per index:
the first build stores the set it uses in `<index>/hot_terms.json` before it
submits any partition, and every later call (append, resume after a crash)
reads it back instead of sampling again, so all segments salt the same terms.
A `hot_terms=` argument still decides the set for its own call.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections.abc import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..sources.reader import Fragment, plan_fragments
from ..stages.encode import encode_bucket
from ..stages.tokenize import TokenizeFragments, sample_hot_terms
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

# One bucket of a full partition at the `cli build` defaults
# (--docs-per-partition 250000 over 32 buckets): the most docs the width rule
# gives one encode task.
_DOCS_PER_BUCKET = 250_000 // 32

# Fragments (row groups) per tokenize task.
FRAGS_PER_TASK = 2

# The index's hot-term set, written by its first build (index_hot_terms).
HOT_TERMS_FILE = "hot_terms.json"


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


def exchange_width(num_buckets: int, partition_docs: int, cpus: int) -> int:
    """Buckets in one exchange: one per CPU, more when a bucket would
    otherwise hold over _DOCS_PER_BUCKET docs, at most num_buckets."""
    need = max(cpus, -(-partition_docs // _DOCS_PER_BUCKET))
    return max(1, min(num_buckets, need))


def split_by_bucket(t: pa.Table, buckets: np.ndarray, w: int):
    """A map task's return value: t's rows split into w tables by bucket id
    (row order kept within a bucket); with one bucket the table itself,
    since num_returns=1 stores whatever the task returns as its single
    object."""
    if w == 1:
        return t
    order = np.argsort(buckets, kind="stable")
    t = t.take(pa.array(order))
    cuts = np.searchsorted(buckets[order], np.arange(w + 1))
    return tuple(t.slice(int(cuts[b]), int(cuts[b + 1] - cuts[b]))
                 for b in range(w))


def stored_hot_terms(out_dir: str) -> frozenset[str] | None:
    """The hot-term set stored by out_dir's first build, or None."""
    path = os.path.join(out_dir, HOT_TERMS_FILE)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return frozenset(json.load(f)["terms"])


def index_hot_terms(out_dir: str, hot_terms: frozenset[str] | None,
                    sample) -> tuple[frozenset[str], str, float]:
    """The hot-term set a build of out_dir uses, where it came from
    ("caller", "index" or "sampled") and the seconds spent sampling.

    An explicit `hot_terms` decides the call's set; otherwise the stored
    set is read back; only an index without one calls `sample()`. The
    first set used is stored (tmp + replace), so a build that crashes
    before its first commit resumes with it."""
    stored = stored_hot_terms(out_dir)
    secs = 0.0
    if hot_terms is not None:
        source = "caller"
    elif stored is not None:
        hot_terms, source = stored, "index"
    else:
        t0 = time.perf_counter()
        hot_terms, source = frozenset(sample()), "sampled"
        secs = time.perf_counter() - t0
    if stored is None:
        path = os.path.join(out_dir, HOT_TERMS_FILE)
        with open(path + ".tmp", "w") as f:
            json.dump({"terms": sorted(hot_terms)}, f)
        os.replace(path + ".tmp", path)
    return hot_terms, source, secs


@functools.cache
def remote(fn):
    """`fn` as a one-CPU Ray remote function, defined once per process so
    that each build or merge call does not export it again."""
    import ray

    return ray.remote(num_cpus=1)(fn)


def submit_map(fn, w: int, *args) -> list:
    """Submit one map task whose w outputs are one object per bucket;
    returns the w object refs."""
    outs = remote(fn).options(num_returns=w).remote(*args, w)
    return [outs] if w == 1 else list(outs)


def _tokenize_group(frag_dicts: list[dict], cfg: dict, w: int):
    """Map task: tokenize a group of fragments, split triples by bucket."""
    batch = {k: np.array([fd[k] for fd in frag_dicts])
             for k in ("path", "row_group", "offset", "num_rows")}
    tables = list(TokenizeFragments(**cfg)(batch))
    t = pa.concat_tables(tables) if len(tables) > 1 else tables[0]
    return split_by_bucket(t, t["bucket"].to_numpy(), w)


def _encode_bucket_task(out_path: str, hot_terms: frozenset, *tables: pa.Table):
    """Reduce task: gather one bucket's triples, encode, write its file.
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
    content_column: str = "content",
    meta_columns: tuple[str, ...] = ("repo", "path", "commit", "lang"),
    extra_content_columns: tuple[str, ...] = (),
    store_offsets_column: str | None = None,
    verbose: bool = False,
) -> IndexStats:
    """Build (or resume building) the inverted index at out_dir.

    `num_buckets` is the most buckets one partition's exchange uses; see
    exchange_width.

    `store_offsets_column`: designate ONE highlight field whose per-token
    CHARACTER OFFSETS are derived once at index time and stored as an
    `offsets/` parquet sidecar (doc_id, starts, ends) — the term-vector
    `with_offsets` analog (Lucene FieldType.storeTermVectorOffsets). The
    fvh highlighter then maps stored positions to spans with a pruned
    point read instead of re-tokenizing each hit doc at fetch time."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    clean_tmp(out_dir)
    frags = plan_fragments(input_path)
    pending = plan_partitions(frags, docs_per_partition,
                              committed_segments(out_dir).values())
    if not pending:
        if store_offsets_column is not None:
            _write_offsets_sidecar(input_path, out_dir, store_offsets_column)
        return index_stats(out_dir)
    hot_terms, hot_from, hot_s = index_hot_terms(
        out_dir, hot_terms, lambda: sample_hot_terms(
            input_path, analyzer=analyzer, hot_df_ratio=hot_df_ratio,
            content_column=content_column))
    # range-salt chunk size: hot terms split into ~salt_chunks ranges/partition
    chunk_range = max(1, docs_per_partition // salt_chunks)
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
        per_bucket: list[list] = [[] for _ in range(w)]
        fdicts = [f.to_dict() for f in seg_frags]
        n_tok = 0
        for i in range(0, len(fdicts), FRAGS_PER_TASK):
            outs = submit_map(_tokenize_group, w, fdicts[i : i + FRAGS_PER_TASK], cfg)
            for b, r in enumerate(outs):
                per_bucket[b].append(r)
            n_tok += 1
        # encode tasks hold the only references to the tokenize outputs:
        # once an encode finishes, its bucket's token triples are freed
        enc_refs = [
            remote(_encode_bucket_task).remote(
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
    window = max(4, min(12, (ncpu * 4) // max(1, num_buckets) + 4))

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
            "buckets": width, "tokenize_tasks": n_tok,
            "encode_s": sum(r[4] for r in results),
            "hot_terms": len(hot_terms), "hot_terms_from": hot_from,
            "hot_terms_s": hot_s,
        })
        if verbose:
            print(f"[build] {seg_id}: {manifest.doc_count} docs, "
                  f"{manifest.term_count} terms, {width} buckets, "
                  f"{manifest.build_seconds:.1f}s")
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
