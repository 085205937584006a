"""Checkpoint-resume demonstration at bench scale (the north rule's
"resumable from the last committed segment checkpoint after failure"):

1. build the bench corpus index in a CHILD process and SIGKILL the whole
   process group once k segments have committed (mid-build hard crash --
   in-flight tmp segments are left behind, exactly like a node loss);
2. RESUME the build in this process: `build_index` skips every
   committed segment (manifest presence = checkpoint) and rebuilds only
   the rest, clearing orphaned tmp dirs first;
3. build a CLEAN one-shot index of the same corpus and assert the resumed
   index is identical -- the same stored hot-term set (the resume reads
   the killed build's instead of sampling), same committed segment ids,
   same per-segment manifests (doc ranges / counts / term counts), and
   rank-identical BM25 top-k docIDs AND scores over the full reference
   query set.

Prints one JSON line of evidence; recorded in SCALE.md.

Usage: python tools/resume_demo.py [n_docs] [kill_after_segments]
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

BASE = "/tmp/esray_resume"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CHILD = """
import ray, sys
ray.init(address="local", num_cpus=16, include_dashboard=False,
         logging_level="ERROR")
sys.path.insert(0, sys.argv[3])
from elasticsearch_ray.index.build import build_index
build_index(sys.argv[1], sys.argv[2], docs_per_partition=10_000,
            num_buckets=32)
"""


def _manifest_count(idx_dir: str) -> int:
    from elasticsearch_ray.index.manifest import committed_segments

    try:
        return len(committed_segments(idx_dir))
    except FileNotFoundError:
        return 0


def main() -> None:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    kill_after = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    sys.path.insert(0, ROOT)
    from elasticsearch_ray.sources.corpus import write_corpus

    corpus = os.path.join(BASE, f"corpus_{n_docs}")
    idx_killed = os.path.join(BASE, "idx_killed")
    idx_clean = os.path.join(BASE, "idx_clean")
    shutil.rmtree(idx_killed, ignore_errors=True)
    shutil.rmtree(idx_clean, ignore_errors=True)
    write_corpus(corpus, n_docs, rows_per_file=8000, row_group_size=500)

    # --- 1. crash the build after k committed segments --------------------
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, corpus, idx_killed, ROOT],
        start_new_session=True,  # its ray session dies with the group
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    t0 = time.time()
    while time.time() - t0 < 300:
        if _manifest_count(idx_killed) >= kill_after:
            break
        if child.poll() is not None:
            raise SystemExit("build finished before the kill threshold — "
                             "lower kill_after or raise n_docs")
        time.sleep(0.2)
    os.killpg(os.getpgid(child.pid), signal.SIGKILL)
    child.wait()
    committed_before = _manifest_count(idx_killed)
    tmp_orphans = len([d for d in os.listdir(idx_killed)
                       if d.startswith(".tmp-")])

    # --- 2. resume in this process ----------------------------------------
    import ray

    ray.init(address="local", num_cpus=16, include_dashboard=False,
             logging_level="ERROR")
    from elasticsearch_ray.index.build import build_index, stored_hot_terms
    from elasticsearch_ray.index.manifest import committed_segments

    t0 = time.time()
    build_index(corpus, idx_killed, docs_per_partition=10_000,
                num_buckets=32)
    t_resume = time.time() - t0

    # --- 3. clean one-shot build + identity checks ------------------------
    t0 = time.time()
    build_index(corpus, idx_clean, docs_per_partition=10_000,
                num_buckets=32)
    t_clean = time.time() - t0

    hot_r, hot_c = stored_hot_terms(idx_killed), stored_hot_terms(idx_clean)
    assert hot_r is not None and hot_r == hot_c, "stored hot-term sets differ"

    segs_r = committed_segments(idx_killed)
    segs_c = committed_segments(idx_clean)
    assert set(segs_r) == set(segs_c), "segment id sets differ"
    for sid in segs_c:
        a, b = segs_r[sid], segs_c[sid]
        for field in ("doc_count", "sum_doc_len", "term_count",
                      "doc_id_min", "doc_id_max"):
            assert getattr(a, field) == getattr(b, field), (sid, field)

    from elasticsearch_ray.search.engine import IndexSearcher
    from elasticsearch_ray.sources.queries import reference_queries

    s_r, s_c = IndexSearcher(idx_killed), IndexSearcher(idx_clean)
    n_q = 0
    for q in reference_queries():
        ids_r, sc_r = s_r.search(q)
        ids_c, sc_c = s_c.search(q)
        assert ids_r.tolist() == ids_c.tolist(), q
        assert sc_r.tolist() == sc_c.tolist(), q
        n_q += 1

    print(json.dumps({
        "n_docs": n_docs,
        "segments_total": len(segs_c),
        "segments_committed_before_kill": committed_before,
        "segments_rebuilt_after_resume": len(segs_c) - committed_before,
        "tmp_orphans_at_crash": tmp_orphans,
        "resume_wall_s": round(t_resume, 2),
        "clean_build_wall_s": round(t_clean, 2),
        "hot_terms_stored": len(hot_c),
        "queries_rank_and_score_identical": n_q,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
