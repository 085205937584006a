"""`operators` workload: a pass over ten `pipelines/ops.py` gates (per-doc
tokenize-and-count, aggregations, exact dedup) on seeded `documents` and
`events` tables with the schema of the repository's sf test tables, each
result checked against the DuckDB SQL in operators.sql."""

from __future__ import annotations

import os
import re

import numpy as np

from .common import median, timed

GATES = ("top_terms", "text_quality", "lm_perplexity", "graph_explore",
         "agg_terms", "agg_date_histogram", "agg_cardinality", "agg_histogram",
         "agg_composite", "dedup_exact")
N_DOCUMENTS = 1000
N_EVENTS = 10_000
DUPLICATE_SHARE = 0.02
_WORDS = ("data batch part spark line column order small sort fast value scan hash "
          "slow group agg filter query big key window row table stream merge join "
          "vector customer index shard node cache token term count plan task worker "
          "queue load store flush commit segment block chunk split buffer read write "
          "open close file path").split()
_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")
_LANGS = ("en", "en", "de", "es", "fr", "zh")


def write_tables(out_dir: str, seed: int) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng([seed, 7])
    os.makedirs(out_dir, exist_ok=True)
    p = np.arange(1, len(_WORDS) + 1, dtype=np.float64) ** -0.9
    cdf = np.cumsum(p / p.sum())
    texts: list[str] = []
    for i in range(N_DOCUMENTS):
        if i > 10 and rng.random() < DUPLICATE_SHARE:
            texts.append(texts[int(rng.integers(0, i))])
            continue
        n = int(rng.integers(8, 90))
        words = [_WORDS[j] for j in np.searchsorted(cdf, rng.random(n))]
        for j in rng.integers(0, n, size=n // 12):
            words[int(j)] = ("a", "the")[int(j) % 2]
        texts.append(" ".join(words))
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(N_DOCUMENTS), pa.int64()),
        "text": texts,
        "lang": [_LANGS[int(x)] for x in rng.integers(0, len(_LANGS), N_DOCUMENTS)],
        "source": [f"src{int(x)}" for x in rng.integers(0, 20, N_DOCUMENTS)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    }), os.path.join(out_dir, "documents.parquet"))
    t0 = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = np.sort(rng.integers(0, 30 * 86400 * 10**6, N_EVENTS)) + t0
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(N_EVENTS), pa.int64()),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, 1500, N_EVENTS), pa.int64()),
        "event_type": [_EVENT_TYPES[int(x)] for x in rng.integers(0, 5, N_EVENTS)],
        "value": np.round(rng.exponential(50.0, N_EVENTS), 2),
        "props": [f'{{"k": {int(x)}}}' for x in rng.integers(0, 100, N_EVENTS)],
    }), os.path.join(out_dir, "events.parquet"))


def oracle_results(data_dir: str) -> dict:
    import duckdb

    sql = open(os.path.join(os.path.dirname(__file__), "operators.sql")).read()
    blocks = re.split(r"^-- gate: (\w+)\s*$", sql, flags=re.M)[1:]
    con = duckdb.connect()
    try:
        for t in ("documents", "events"):
            path = os.path.join(data_dir, f"{t}.parquet").replace("'", "''")
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
        return {name: con.execute(q).df() for name, q in zip(blocks[::2], blocks[1::2])}
    finally:
        con.close()


def same_frame(got, want, tol: float = 1.5e-4) -> bool:
    """Equal row order and values; floats within rounding of 4 decimals."""
    import pandas as pd

    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    for c in want.columns:
        g, w = got[c].reset_index(drop=True), want[c].reset_index(drop=True)
        if pd.api.types.is_datetime64_any_dtype(w) or pd.api.types.is_datetime64_any_dtype(g):
            if not (pd.to_datetime(g).values.astype("datetime64[us]")
                    == pd.to_datetime(w).values.astype("datetime64[us]")).all():
                return False
        elif pd.api.types.is_float_dtype(w) or pd.api.types.is_float_dtype(g):
            if not np.allclose(g.to_numpy(np.float64), w.to_numpy(np.float64),
                               rtol=1e-9, atol=tol):
                return False
        elif g.astype(str).tolist() != w.astype(str).tolist():
            return False
    return True


def run_gate(name: str, data_dir: str):
    from elasticsearch_ray.pipelines import ops

    return getattr(ops, name)(data_dir)


def ray_data_floor() -> float:
    import ray.data as rd

    _, dt = timed(lambda: rd.range(1000).map_batches(lambda b: b).count())
    return dt


def run(ctx) -> None:
    data = ctx.path("tables")
    write_tables(data, ctx.seed)
    want = oracle_results(data)
    ray_data_floor()  # Ray Data worker start-up
    ctx.start_window()
    times = []
    for _ in ctx.rounds():
        for g in GATES:
            ctx.tracer.new_trace()
            with ctx.tracer.span(f"pipelines.ops.{g}"):
                out, dt = timed(run_gate, g, data)
            times.append(dt)
            ctx.op(same_frame(out, want[g]), f"gate {g} differs from its SQL oracle")
            ctx.checkpoint()
    ctx.metrics["work_per_s"] = len(times) / sum(times)
    ctx.metrics["op_p50_ms"] = 1000.0 * median(times)


def layers(ctx) -> None:
    data = ctx.path("layers-operators")
    write_tables(data, ctx.seed)
    ctx.metrics["ray.data.floor_s"] = median([ray_data_floor() for _ in range(3)])
    for g in GATES:
        with ctx.tracer.span(f"pipelines.ops.{g}"):
            _, ctx.metrics[f"pipelines.ops.{g}_s"] = timed(run_gate, g, data)
        ctx.checkpoint()
