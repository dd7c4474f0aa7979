#!/usr/bin/env python
"""Local replica of the driver's correctness gate: run each
``queries()[name](sf_dir)`` and its ``oracle_sql()[name]`` side by side in
DuckDB (driver tables registered as views) and compare row count, schema
(column-name set) and an order-insensitive exact value comparison — at
least as strict as the driver's value-hash, so green here implies green
there.

Usage:
    python tools/driver_check.py [--sf /root/testdata/sf0.01] [names...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def _canon(df):
    """Sort columns by name, rows by all columns — order-insensitive view."""
    import numpy as np

    df = df[sorted(df.columns)].reset_index(drop=True)
    if len(df):
        df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def compare(name: str, q, sql: str | None, sf_dir: str) -> dict:
    import duckdb
    import numpy as np

    t0 = time.monotonic()
    try:
        ray_df = _to_pandas(q(sf_dir))
    except Exception as e:  # noqa: BLE001
        return {"err": f"query_crash: {type(e).__name__}: {e}"}
    out = {"rows": int(len(ray_df)), "wall_s": round(time.monotonic() - t0, 2)}
    if sql is None:
        out["err"] = "no_oracle"
        return out
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    t0 = time.monotonic()
    try:
        ora_df = con.execute(sql).fetchdf()
    except Exception as e:  # noqa: BLE001
        out["err"] = f"oracle_crash: {type(e).__name__}: {e}"
        return out
    out["oracle_s"] = round(time.monotonic() - t0, 2)
    out["oracle_rows"] = int(len(ora_df))
    out["rows_match"] = len(ray_df) == len(ora_df)
    out["schema_match"] = sorted(ray_df.columns) == sorted(ora_df.columns)
    if not (out["rows_match"] and out["schema_match"]):
        out["err"] = "rows/schema mismatch"
        out["ray_cols"] = sorted(map(str, ray_df.columns))
        out["ora_cols"] = sorted(map(str, ora_df.columns))
        return out
    a, b = _canon(ray_df), _canon(ora_df)
    bad_cols = []
    for col in a.columns:
        av, bv = a[col].to_numpy(), b[col].to_numpy()
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            eq = (av == bv) | (np.isnan(av.astype(float)) & np.isnan(bv.astype(float)))
            ok = bool(eq.all())
        else:
            ok = bool((av == bv).all()) if len(av) else True
        if not ok:
            bad_cols.append(col)
            idx = [i for i in range(len(av)) if not (
                av[i] == bv[i] or (isinstance(av[i], float) and isinstance(bv[i], float)
                                   and np.isnan(av[i]) and np.isnan(bv[i])))][:3]
            out[f"diff_{col}"] = [[repr(av[i]), repr(bv[i])] for i in idx]
    out["hash_match"] = not bad_cols
    if bad_cols:
        out["err"] = f"value mismatch in {bad_cols}"
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--jsonl", default=None,
                    help="append one full-JSON result line per query "
                         "({'name': ..., **result}) to this path")
    ap.add_argument("names", nargs="*")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="error")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    names = args.names or sorted(qs)
    failures = 0
    for name in names:
        r = compare(name, qs[name], sqls.get(name), args.sf)
        ok = r.get("hash_match")
        status = "PASS" if ok else ("----" if r.get("err") == "no_oracle" else "FAIL")
        if status == "FAIL":
            failures += 1
        print(f"{status} {name}: {json.dumps(r)[:400]}")
        if args.jsonl:
            with open(args.jsonl, "a") as fh:
                fh.write(json.dumps({"name": name, **r}, default=str) + "\n")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
