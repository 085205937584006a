"""Local mirror of the driver's correctness gate: run every queries() entry at
sf0.01 alongside its oracle_sql() in DuckDB; compare row count, schema, and
order-insensitive values. Usage: python tools/check_correctness.py [sf_dir]
"""

from __future__ import annotations

import sys
import time

import duckdb
import numpy as np
import pandas as pd


# The largest gate result at sf0.1 is 150,000 rows (ingest_dissect_modifiers);
# a result past the cap is a gate that forgot to reduce, not a comparison.
ROW_CAP = 1_000_000


class OverRowCap(Exception):
    pass


def to_pandas(res, cap: int = ROW_CAP) -> pd.DataFrame:
    """Gate result -> pandas. A Dataset is read through limit(cap + 1), so
    an oversized result never materializes whole on the driver."""
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        df = res.reset_index(drop=True)
    elif isinstance(res, pa.Table):
        df = res.to_pandas()
    else:
        df = res.limit(cap + 1).to_pandas()  # ray Dataset
    if len(df) > cap:
        raise OverRowCap(f"over row cap ({cap:,} rows)")
    return df


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
        if df[c].dtype in (np.int32, np.uint64, np.uint32):
            df[c] = df[c].astype(np.int64)
        if df[c].dtype == np.float32:
            df[c] = df[c].astype(np.float64)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2].split(",") if len(sys.argv) > 2 else None
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs, oracles = E.queries(), E.oracle_sql()
    n_pass = n_fail = n_rows_only = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except OverRowCap as ex:
            print(f"FAIL  {name}: {ex}")
            n_fail += 1
            continue
        except Exception as ex:
            print(f"FAIL  {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(got)} rows ({dt:.1f}s) [rows-only]")
            n_rows_only += 1
            continue
        try:
            want = normalize(con.sql(oracles[name]).df())
        except Exception as ex:
            print(f"FAIL  {name}: ORACLE raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if list(got.columns) != list(want.columns):
            problems.append(f"cols {list(got.columns)} != {list(want.columns)}")
        if not problems:
            if list(map(str, got.dtypes)) != list(map(str, want.dtypes)):
                problems.append(
                    f"dtypes {dict(zip(got.columns, map(str, got.dtypes)))} != "
                    f"{dict(zip(want.columns, map(str, want.dtypes)))}"
                )
        if not problems:
            eq = True
            for c in got.columns:
                a, b = got[c].to_numpy(), want[c].to_numpy()
                if a.dtype == np.float64:
                    same = np.allclose(a, b, rtol=0, atol=1e-9, equal_nan=True)
                else:
                    same = (pd.Series(a) == pd.Series(b)).all()
                if not same:
                    bad = np.flatnonzero(~(pd.Series(a).eq(pd.Series(b))))[:3]
                    problems.append(
                        f"col {c} differs at rows {bad.tolist()}: "
                        f"got {a[bad][:3]} want {b[bad][:3]}"
                    )
                    eq = False
            if eq and not problems:
                print(f"PASS  {name}: {len(got)} rows ({dt:.1f}s)")
                n_pass += 1
                continue
        print(f"FAIL  {name}: {'; '.join(problems)}")
        n_fail += 1
    print(f"\n{n_pass} pass, {n_fail} fail, {n_rows_only} rows-only")
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
