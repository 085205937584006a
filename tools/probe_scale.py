"""Corpus-size scale probe: build an N-doc synthetic corpus index with the
windowed task build and report throughput, optionally serving the reference
query set over the result (distributed actor pool).

This is the committed form of the round-3 800k / 1.6M probes recorded in
BASELINE.md ("Round-3 corpus-size probe"): flat-to-rising files/s as the
corpus grows is the property the 100-TB design depends on, and this script
reproduces the measurement at any size.

Usage:
  python tools/probe_scale.py [n_docs] [--serve] [--cpus N]
  (defaults: n_docs=800000, no serving pass, cpus=32)
"""

from __future__ import annotations

import os
import shutil
import sys
import time


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    n_docs = int(args[0]) if args else 800_000
    serve = "--serve" in sys.argv
    ncpu = 32
    if "--cpus" in sys.argv:
        ncpu = int(sys.argv[sys.argv.index("--cpus") + 1])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

    from elasticsearch_ray.index.build import build_index
    from elasticsearch_ray.sources.corpus import write_corpus

    # interleaved host-phase control: a fixed pure-python burn, so the
    # probe's number can be read against the hour's noisy-neighbor state
    t0 = time.time()
    sum(i * i for i in range(20_000_000))
    burn = time.time() - t0
    print(f"host-phase control burn: {burn:.2f}s "
          "(compare across runs: higher = throttled host phase)")

    corpus_dir = f"/tmp/esray_bench/corpus_{n_docs}"
    t0 = time.time()
    write_corpus(corpus_dir, n_docs, rows_per_file=8000, row_group_size=500)
    print(f"corpus ready in {time.time() - t0:.1f}s (cached if ~0)")
    corpus_bytes = sum(
        os.path.getsize(os.path.join(corpus_dir, f))
        for f in os.listdir(corpus_dir) if f.endswith(".parquet"))

    idx_dir = f"/tmp/esray_probe/idx_{n_docs}_{ncpu}"
    shutil.rmtree(idx_dir, ignore_errors=True)
    t0 = time.time()
    build_index(corpus_dir, idx_dir,
                docs_per_partition=10_000, num_buckets=32)
    dt = time.time() - t0
    print(f"build {n_docs} docs in {dt:.1f}s = {n_docs / dt:,.0f} files/s "
          f"({corpus_bytes / dt / 1e6:.1f} MB/s), {ncpu} cpus")

    if serve:
        import numpy as np

        from elasticsearch_ray.search.distributed import DistributedSearcher
        from elasticsearch_ray.sources.queries import reference_queries

        t0 = time.time()
        ds = DistributedSearcher(idx_dir, num_searchers=8)
        print(f"searcher load: {time.time() - t0:.1f}s (8 actors)")
        qs = [{**q, "k": 10} for q in reference_queries()]
        for q in qs:  # warmup
            ds.search(q)
        lat = np.full((len(qs), 5), np.inf)
        for p in range(5):
            for i, q in enumerate(qs):
                t0 = time.time()
                ds.search(q)
                lat[i, p] = time.time() - t0
        best = lat.min(axis=1)
        print(f"serving warm best-of-5: p50 {np.percentile(best, 50)*1e3:.1f} ms"
              f" / p99 {np.percentile(best, 99)*1e3:.1f} ms over {len(qs)} queries")

    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
