"""CLI entry points — the `ray job submit` surface (north rule).

On a real cluster:
    ray job submit --working-dir . -- python -m elasticsearch_ray.cli build \
        --input s3://corpus/ --out s3://index/ --docs-per-partition 10000000
    ray job submit --working-dir . -- python -m elasticsearch_ray.cli search \
        --index s3://index/ --query '{"kind":"match","text":"parse http"}'
    ray job submit --working-dir . -- python -m elasticsearch_ray.cli merge \
        --index s3://index/ --max-segments 10

In this sandbox the same commands run locally (`ray.init(address="local")`).
This module OWNS its Ray session (unlike __ray_entry__, whose session belongs
to the driver).
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kw = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if num_cpus:
            kw["num_cpus"] = num_cpus
        ray.init(**kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def cmd_build(args) -> int:
    _init_ray(args.num_cpus)
    t0 = time.time()
    if args.engine == "tasks":
        from .index.fast_build import build_index_tasks as build
    else:
        from .index.build import build_index as build
    stats = build(
        args.input, args.out,
        analyzer=args.analyzer,
        index_positions=not args.no_positions,
        docs_per_partition=args.docs_per_partition,
        num_buckets=args.num_buckets,
        content_column=args.content_column,
        meta_columns=tuple(c for c in args.meta_columns.split(",") if c),
    )
    print(json.dumps({
        "doc_count": stats.doc_count, "sum_doc_len": stats.sum_doc_len,
        "avgdl": round(stats.avgdl, 3), "seconds": round(time.time() - t0, 2),
        "docs_per_sec": round(stats.doc_count / max(time.time() - t0, 1e-9), 1),
    }))
    return 0


def cmd_search(args) -> int:
    _init_ray(args.num_cpus)
    from .search.engine import IndexSearcher

    s = IndexSearcher(args.index, score_mode=args.score_mode)
    q = json.loads(args.query)
    q.setdefault("k", args.k)
    ids, scores = s.search(q)
    hits = [{"doc_id": int(d), "score": float(v)} for d, v in zip(ids, scores)]
    if args.fetch:
        meta = s.fetch(ids, args.fetch.split(","))
        for h, row in zip(hits, meta.to_pylist()):
            h.update(row)
    print(json.dumps({"total": len(hits), "hits": hits}))
    return 0


def cmd_vector_build(args) -> int:
    _init_ray(args.num_cpus)
    import ray.data as rd

    from .index.vector import build_vector_index

    t0 = time.time()
    ds = rd.read_parquet(args.input)
    man = build_vector_index(ds, args.out, bits=args.bits,
                             vec_col=args.vec_col, id_col=args.id_col)
    print(json.dumps({**man, "seconds": round(time.time() - t0, 2)}))
    return 0


def cmd_vector_search(args) -> int:
    _init_ray(args.num_cpus)
    import numpy as np

    from .index.vector import search_vector_index

    q = np.array(json.loads(args.query), dtype=float)
    if q.ndim == 1:
        q = q[None, :]
    out = search_vector_index(args.index, q, k=args.k)
    print(json.dumps({"total": len(out),
                      "hits": out.to_dict(orient="records")}))
    return 0


def cmd_merge(args) -> int:
    _init_ray(args.num_cpus)
    from .index.merge import force_merge, gc_merged

    merged = force_merge(args.index, max_num_segments=args.max_segments)
    removed = gc_merged(args.index) if args.gc else []
    print(json.dumps({"merged": merged, "removed": removed}))
    return 0


def cmd_snapshot(args) -> int:
    from .index.snapshot import (
        create_snapshot,
        delete_snapshot,
        list_snapshots,
        restore_snapshot,
    )

    if args.action == "create":
        out = create_snapshot(args.index, args.repo, args.name)
    elif args.action == "restore":
        out = {"restored_segments": restore_snapshot(args.repo, args.name, args.dest)}
    elif args.action == "delete":
        out = {"deleted_files": delete_snapshot(args.repo, args.name)}
    else:
        out = {"snapshots": list_snapshots(args.repo)}
    print(json.dumps(out, default=str))
    return 0


def cmd_mount(args) -> int:
    from .index.snapshot import mount_snapshot

    segs = mount_snapshot(args.repo, args.name, args.dest)
    print(json.dumps({"mounted_segments": segs, "mount_dir": args.dest}))
    return 0


def cmd_follow(args) -> int:
    from .index.ccr import follow

    out = follow(args.leader, args.follower)
    print(json.dumps(out))
    return 0


def cmd_reshape(args) -> int:
    from .index.reshape import clone_index, shrink_index, split_index

    if args.action == "clone":
        out = {"segments": clone_index(args.index, args.dest)}
    elif args.action == "shrink":
        _init_ray(args.num_cpus)
        out = {"segments": shrink_index(args.index, args.dest, args.factor)}
    else:  # split
        _init_ray(args.num_cpus)
        out = {"segments": split_index(args.index, args.dest, args.factor)}
    print(json.dumps(out))
    return 0


def cmd_rollover(args) -> int:
    from .index.reshape import create_alias, rollover

    if args.create_index:
        out = create_alias(args.base, args.alias, args.create_index)
    else:
        out = rollover(
            args.base, args.alias, max_docs=args.max_docs,
            max_age_s=args.max_age_s, max_size_bytes=args.max_size_bytes,
            dry_run=args.dry_run)
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="elasticsearch_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) an inverted index")
    b.add_argument("--input", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--analyzer", default="code")
    b.add_argument("--content-column", default="content",
                   help="text column to index (BASELINE corpus: content; "
                        "driver documents table: text)")
    b.add_argument("--meta-columns", default="repo,path,commit,lang",
                   help="comma-separated stored metadata columns "
                        "(documents table: lang,source,n_chars)")
    b.add_argument("--engine", choices=["tasks", "dataset"], default="tasks")
    b.add_argument("--docs-per-partition", type=int, default=250_000)
    b.add_argument("--num-buckets", type=int, default=32,
                   help="most buckets per partition: the task build sizes "
                        "each partition's exchange to the cluster's CPUs "
                        "and the partition's docs, up to this many")
    b.add_argument("--no-positions", action="store_true")
    b.add_argument("--num-cpus", type=int, default=None)
    b.set_defaults(fn=cmd_build)

    s = sub.add_parser("search", help="run one query against an index")
    s.add_argument("--index", required=True)
    s.add_argument("--query", required=True, help="query DSL as JSON")
    s.add_argument("--k", type=int, default=10)
    s.add_argument("--score-mode", default="lucene")
    s.add_argument("--fetch", default=None, help="comma-separated docmeta columns")
    s.add_argument("--num-cpus", type=int, default=None)
    s.set_defaults(fn=cmd_search)

    m = sub.add_parser("merge", help="force-merge segments")
    m.add_argument("--index", required=True)
    m.add_argument("--max-segments", type=int, default=1)
    m.add_argument("--gc", action="store_true")
    m.add_argument("--num-cpus", type=int, default=None)
    m.set_defaults(fn=cmd_merge)

    sn = sub.add_parser("snapshot", help="snapshot repository operations "
                        "(_snapshot API analog; content-addressed, incremental)")
    sn.add_argument("action", choices=["create", "restore", "list", "delete"])
    sn.add_argument("--repo", required=True)
    sn.add_argument("--name", default=None)
    sn.add_argument("--index", default=None, help="source index (create)")
    sn.add_argument("--dest", default=None, help="restore destination")
    sn.set_defaults(fn=cmd_snapshot)

    mo = sub.add_parser("mount", help="mount a snapshot as a searchable "
                        "index (symlinked segments, zero copy)")
    mo.add_argument("--repo", required=True)
    mo.add_argument("--name", required=True)
    mo.add_argument("--dest", required=True)
    mo.set_defaults(fn=cmd_mount)

    fo = sub.add_parser("follow", help="CCR follow cycle: pull missing "
                        "segments from a leader index")
    fo.add_argument("--leader", required=True)
    fo.add_argument("--follower", required=True)
    fo.set_defaults(fn=cmd_follow)

    rs = sub.add_parser("reshape", help="clone/shrink/split an index "
                        "(_clone/_shrink/_split resize analogs)")
    rs.add_argument("action", choices=["clone", "shrink", "split"])
    rs.add_argument("--index", required=True)
    rs.add_argument("--dest", required=True)
    rs.add_argument("--factor", type=int, default=2,
                    help="shrink group size / split parts per segment")
    rs.add_argument("--num-cpus", type=int, default=None)
    rs.set_defaults(fn=cmd_reshape)

    ro = sub.add_parser("rollover", help="write-alias rollover "
                        "(max_docs/max_age/max_size conditions)")
    ro.add_argument("--base", required=True, help="directory holding indices")
    ro.add_argument("--alias", required=True)
    ro.add_argument("--create-index", default=None,
                    help="create the alias pointing at this index and exit")
    ro.add_argument("--max-docs", type=int, default=None)
    ro.add_argument("--max-age-s", type=float, default=None)
    ro.add_argument("--max-size-bytes", type=int, default=None)
    ro.add_argument("--dry-run", action="store_true")
    ro.set_defaults(fn=cmd_rollover)

    vb = sub.add_parser("vector-build", help="build (or reuse) a persisted "
                        "int8 quantized vector index from a parquet "
                        "embedding table")
    vb.add_argument("--input", required=True)
    vb.add_argument("--out", required=True)
    vb.add_argument("--bits", type=int, default=8)
    vb.add_argument("--vec-col", default="embedding")
    vb.add_argument("--id-col", default="vec_id")
    vb.add_argument("--num-cpus", type=int, default=None)
    vb.set_defaults(fn=cmd_vector_build)

    vs = sub.add_parser("vector-search", help="integer-dot top-k over a "
                        "persisted vector index")
    vs.add_argument("--index", required=True)
    vs.add_argument("--query", required=True,
                    help="JSON vector or list of vectors")
    vs.add_argument("--k", type=int, default=5)
    vs.add_argument("--num-cpus", type=int, default=None)
    vs.set_defaults(fn=cmd_vector_search)

    args = p.parse_args(argv)
    if getattr(args, "cmd", None) == "snapshot":
        if args.action in ("create", "restore", "delete") and not args.name:
            p.error("--name is required for create/restore/delete")
        if args.action == "create" and not args.index:
            p.error("--index is required for create")
        if args.action == "restore" and not args.dest:
            p.error("--dest is required for restore")
    try:
        return args.fn(args)
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
