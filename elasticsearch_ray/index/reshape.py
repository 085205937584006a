"""Index lifecycle resharding — the _clone / _shrink / _split / _rollover
analogs of the reference's resize and rollover APIs
(server/src/main/java/org/elasticsearch/action/admin/indices/shrink/
ResizeType.java + TransportResizeAction.java validation rules;
rollover conditions per action/admin/indices/rollover/
MetadataRolloverService.java: max_docs / max_age / max_size).

Doc ids are global and never renumbered, so every reshape is a pure
segment-layout operation — no re-tokenization, no re-scoring state:

- clone:  copy committed segments verbatim (the reference hardlinks Lucene
  segment files; we copy the parquet segment dirs + manifests).
- shrink: merge groups of ADJACENT doc-range segments via the tiered-merge
  machinery (posting rows of disjoint ordered ranges concatenate cheaply);
  like the reference, the source count must be a multiple of the target.
- split:  re-partition each segment's postings by doc-id sub-range — one
  bounded Ray task per source segment decodes its posting rows to triples
  once (stages/encode.py:decode_bucket), filters per part and re-encodes
  with the build's vectorized encode_bucket (skip pointers and block-max
  metadata recomputed exactly).
- rollover: alias-state JSON checked against max_docs / max_age / max_size;
  on trigger the alias atomically moves to a freshly created empty target.

Each target segment is committed atomically (manifest rename), so a failed
reshape resumes by re-running: committed parts are skipped, tmp dirs swept.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from .manifest import (
    SegmentManifest,
    clean_tmp,
    commit_segment,
    committed_segments,
    live_segments,
    tmp_segment_dir,
)


def _live_by_range(index_dir: str) -> list[tuple[str, SegmentManifest]]:
    segs = live_segments(committed_segments(index_dir))
    return sorted(segs.items(), key=lambda kv: kv[1].doc_id_min)


def clone_index(src: str, dst: str) -> list[str]:
    """Copy every live segment of `src` into a fresh committed index at
    `dst` (ResizeType.CLONE). Superseded pre-merge segments are not carried
    over — the clone starts from the live view."""
    os.makedirs(dst, exist_ok=True)
    clean_tmp(dst)
    out = []
    for sid, m in _live_by_range(src):
        if os.path.isfile(os.path.join(dst, sid, "manifest.json")):
            out.append(sid)  # resume: already committed
            continue
        tmp = tmp_segment_dir(dst, sid)
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(os.path.join(src, sid), tmp)
        # copytree brings manifest.json along; commit_segment rewrites it
        commit_segment(dst, sid, m)
        out.append(sid)
    return out


def shrink_index(src: str, dst: str, factor: int) -> list[str]:
    """Shrink to len(live)/factor segments by merging each group of `factor`
    adjacent doc-range segments. Mirrors the reference's rule that the
    source shard count must be a multiple of the target count
    (TransportResizeAction: 'must be a factor of')."""
    from .merge import gc_merged, merge_segments

    if factor < 2:
        raise ValueError("shrink factor must be >= 2")
    live = _live_by_range(src)
    if len(live) % factor != 0:
        raise ValueError(
            f"source segment count {len(live)} must be a multiple of the "
            f"shrink factor {factor}")
    clone_index(src, dst)
    out = []
    for i in range(0, len(live), factor):
        group = [sid for sid, _ in live[i:i + factor]]
        cur = live_segments(committed_segments(dst))
        if not all(s in cur for s in group):
            continue  # resume: this group was already merged by a prior run
        out.append(merge_segments(dst, group))
    gc_merged(dst)
    return out


def _split_segment(index_dir: str, sid: str, manifest: SegmentManifest,
                   dst: str, parts: int) -> list[tuple[str, SegmentManifest]]:
    """Split one segment into `parts` doc-range sub-segments (bounded work:
    one decode of this segment's postings, `parts` filtered re-encodes)."""
    import pyarrow.compute as pc

    from ..sources.reader import list_parquet_files
    from ..stages.encode import decode_bucket, encode_bucket

    t0 = time.time()
    meta = pads.dataset(os.path.join(index_dir, sid, "docmeta")).to_table()
    meta = meta.sort_by("doc_id")
    mdoc = meta["doc_id"].to_numpy()
    lo, hi = manifest.doc_id_min, manifest.doc_id_max + 1
    bounds = np.linspace(lo, hi, parts + 1).astype(np.int64)

    # dense norms over THIS segment's doc range only (offset by lo)
    norm_full = np.zeros(hi - lo, dtype=np.uint8)
    norm_full[mdoc - lo] = meta["norm_byte"].to_numpy().astype(np.uint8)
    triples = decode_bucket(pads.dataset(list_parquet_files(
        os.path.join(index_dir, sid, "postings"))).to_table(), norm_full, lo)
    doc = triples["doc_id"].to_numpy()

    out = []
    for p in range(parts):
        plo, phi = int(bounds[p]), int(bounds[p + 1])
        msel = (mdoc >= plo) & (mdoc < phi)
        n_docs = int(msel.sum())
        if n_docs == 0:
            continue
        part_lo = int(mdoc[msel].min())
        new_id = f"seg_{part_lo:012d}"
        if os.path.isfile(os.path.join(dst, new_id, "manifest.json")):
            # resume BEFORE the expensive filter/re-encode, not after
            out.append((new_id, committed_segments(dst)[new_id]))
            continue
        part_meta = meta.filter(pa.array(msel))
        encoded = encode_bucket(
            triples.filter(pa.array((doc >= plo) & (doc < phi))))

        tmp = tmp_segment_dir(dst, new_id)
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(os.path.join(tmp, "docmeta"), exist_ok=True)
        os.makedirs(os.path.join(tmp, "postings"), exist_ok=True)
        import pyarrow.parquet as pq

        pq.write_table(part_meta, os.path.join(tmp, "docmeta", "part.parquet"))
        pq.write_table(encoded, os.path.join(tmp, "postings", "part.parquet"))
        pm = SegmentManifest(
            segment_id=new_id,
            fragments=manifest.fragments,
            doc_count=n_docs,
            sum_doc_len=int(part_meta["doc_len"].to_numpy().sum()),
            term_count=pc.count_distinct(encoded["term"]).as_py()
            if len(encoded) else 0,
            doc_id_min=part_lo,
            doc_id_max=int(mdoc[msel].max()),
            analyzer=manifest.analyzer,
            index_positions=manifest.index_positions,
            build_seconds=time.time() - t0,
            generation=manifest.generation,
            extra={"split_from": sid, "part": p, "parts": parts},
        )
        commit_segment(dst, new_id, pm)
        out.append((new_id, pm))
    return out


def split_index(src: str, dst: str, parts: int) -> list[str]:
    """Split every live segment into `parts` doc-range sub-segments — the
    _split analog (target shard count = source * parts, mirroring the
    reference's multiple-of rule). One Ray task per source segment; doc ids
    unchanged, postings re-encoded per sub-range, committed atomically."""
    import ray

    if parts < 2:
        raise ValueError("split parts must be >= 2")
    os.makedirs(dst, exist_ok=True)
    clean_tmp(dst)
    live = _live_by_range(src)

    @ray.remote
    def task(sid: str, mjson: str) -> list[str]:
        m = SegmentManifest.from_json(mjson)
        return [nid for nid, _ in _split_segment(src, sid, m, dst, parts)]

    refs = [task.remote(sid, m.to_json()) for sid, m in live]
    out: list[str] = []
    for r in ray.get(refs):
        out.extend(r)
    return out


# ---------------------------------------------------------------------------
# rollover


def _alias_path(base_dir: str, alias: str) -> str:
    return os.path.join(base_dir, f"{alias}.alias.json")


def create_alias(base_dir: str, alias: str, index_name: str) -> dict:
    """Point a write alias at an index (alias state JSON, atomic replace)."""
    os.makedirs(os.path.join(base_dir, index_name), exist_ok=True)
    state = {"alias": alias, "index": index_name,
             "generation": 1, "created_ts": time.time()}
    p = _alias_path(base_dir, alias)
    with open(p + ".tmp", "w") as f:
        json.dump(state, f)
    os.replace(p + ".tmp", p)
    return state


def resolve_alias(base_dir: str, alias: str) -> dict:
    with open(_alias_path(base_dir, alias)) as f:
        return json.load(f)


def _dir_bytes(d: str) -> int:
    total = 0
    for root, _, files in os.walk(d):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def rollover(base_dir: str, alias: str, *, max_docs: int | None = None,
             max_age_s: float | None = None, max_size_bytes: int | None = None,
             dry_run: bool = False) -> dict:
    """Rollover the write alias when ANY condition is met
    (MetadataRolloverService: max_docs / max_age / max_size). Returns the
    reference-shaped response: per-condition booleans, old/new index,
    rolled_over flag. The new index name increments the trailing counter
    (`<alias>-NNNNNN`), and the alias state file is replaced atomically."""
    from .manifest import index_stats

    state = resolve_alias(base_dir, alias)
    cur = os.path.join(base_dir, state["index"])
    stats = index_stats(cur)
    conditions: dict[str, bool] = {}
    if max_docs is not None:
        conditions[f"[max_docs: {max_docs}]"] = stats.doc_count >= max_docs
    if max_age_s is not None:
        conditions[f"[max_age: {max_age_s}s]"] = (
            time.time() - state["created_ts"]) >= max_age_s
    if max_size_bytes is not None:
        conditions[f"[max_size: {max_size_bytes}b]"] = (
            _dir_bytes(cur) >= max_size_bytes)
    met = any(conditions.values()) and bool(conditions)
    gen = int(state.get("generation", 1))
    new_index = f"{alias}-{gen + 1:06d}"
    resp = {"old_index": state["index"], "new_index": new_index,
            "rolled_over": met and not dry_run, "dry_run": dry_run,
            "conditions": conditions}
    if met and not dry_run:
        os.makedirs(os.path.join(base_dir, new_index), exist_ok=True)
        new_state = {"alias": alias, "index": new_index,
                     "generation": gen + 1, "created_ts": time.time()}
        p = _alias_path(base_dir, alias)
        with open(p + ".tmp", "w") as f:
            json.dump(new_state, f)
        os.replace(p + ".tmp", p)
    return resp


def list_aliases(base_dir: str) -> list[dict]:
    """`GET _aliases` / `_cat/aliases`: every alias-state JSON under the
    base dir, sorted by alias name."""
    if not os.path.isdir(base_dir):
        return []
    out = []
    for f in sorted(os.listdir(base_dir)):
        if f.endswith(".alias.json"):
            with open(os.path.join(base_dir, f)) as fh:
                out.append(json.load(fh))
    return sorted(out, key=lambda s: s["alias"])


def delete_alias(base_dir: str, alias: str) -> bool:
    """`DELETE /{index}/_alias/{name}`: drop the alias state; False when it
    did not exist."""
    p = _alias_path(base_dir, alias)
    if not os.path.isfile(p):
        return False
    os.remove(p)
    return True
