"""Time the events queries' one-task plan against their exchange plan.

``queries.sized_plan`` runs a query as ONE plain Ray task when its input
fits one read target (``rollup.fits_one_target``) and as the query's
exchange otherwise.  This script runs both plans on the same inputs, at
sizes on both sides of the target, so the threshold can be checked
against measurements.

For each ``--rows`` size it writes a perfbench ``events`` input
(``perfbench.inputs.ensure_input``, seed 7) under ``--dir``; with
``--files N`` it is split into N equal files, so the exchange's reads can
run in parallel.  Per plan it
starts a fresh local Ray session of ``--cpus`` CPUs, forces the plan by
replacing ``rollup.fits_one_target``, warms the worker with one untimed
query, then times each query ``--reps`` times (``to_pandas``).  The two
plans alternate which runs first from one size to the next.  Prints one
JSON line per (size, plan): planned MiB, the per-query median walls,
their sum, and the peak RSS (``VmHWM``) of the session's Ray workers; a
last line per size lists the queries whose two plans gave different
sorted frames (empty when all agree).

Usage:
    python tools/plan_crossover.py --dir /tmp/xover --cpus 4 \\
        --rows 300000 1200000 2400000 [--files 8] [--reps 3] [--json out.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# The events_queries entries of perfbench, which all go through ``sized_plan``.
QUERIES = ["rollup_events_tier1", "g8_grouping_sets", "g25_stickiness",
           "w59_stickiness", "g38_daily_gini", "a99_xmr_chart",
           "w41_daily_type_corr", "a37_pettitt", "r1_retention_plan",
           "r1_retention_apply", "r2_compact_events"]


def _frame_hash(df) -> int:
    import pandas as pd

    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return int(pd.util.hash_pandas_object(df, index=False).sum())


def _split(path: str, files: int) -> str:
    """``path``'s events table as ``files`` equal files under a sibling dir."""
    import pyarrow.parquet as pq

    out = f"{path}-f{files}"
    if not os.path.isdir(f"{out}/events.parquet"):
        ev = pq.read_table(f"{path}/events.parquet")
        os.makedirs(f"{out}/events.parquet")
        step = -(-ev.num_rows // files)
        for i in range(files):
            pq.write_table(ev.slice(i * step, step), f"{out}/events.parquet/part-{i}.parquet")
    return out


def run_plan(path: str, plan: str, cpus: int, reps: int) -> tuple[dict, dict]:
    """Median wall per query and session worker peak RSS for one plan;
    also the frame hash per query."""
    import ray
    import ray.data

    import __ray_entry__
    from anomalydetection_ray.pipelines import rollup
    from perfbench.session import worker_peak_rss_mib

    os.environ["RAY_worker_niceness"] = "0"
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             logging_level="error", log_to_driver=False,
             object_store_memory=400 * 1024 * 1024)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    fits = rollup.fits_one_target
    rollup.fits_one_target = lambda units: plan == "one_task"
    try:
        qs = __ray_entry__.queries()
        qs[QUERIES[-1]](path).to_pandas()
        walls, hashes = {}, {}
        for name in QUERIES:
            ts = []
            for _ in range(reps):
                t0 = time.monotonic()
                df = qs[name](path).to_pandas()
                ts.append(time.monotonic() - t0)
            walls[name] = round(statistics.median(ts), 3)
            hashes[name] = _frame_hash(df)
        walls["rss_mib"] = round(worker_peak_rss_mib(), 1)
        return walls, hashes
    finally:
        rollup.fits_one_target = fits
        ray.shutdown()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True, help="input cache directory")
    ap.add_argument("--cpus", type=int, default=1)
    ap.add_argument("--rows", type=int, nargs="+", required=True)
    ap.add_argument("--files", type=int, default=1)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--json", default=None, help="append the lines to this file")
    args = ap.parse_args()

    from anomalydetection_ray.pipelines.rollup import plan_read_units
    from perfbench.inputs import ensure_input

    lines = []
    for i, rows in enumerate(args.rows):
        path = ensure_input(args.dir, "events", 7, {"rows": rows})["path"]
        if args.files > 1:
            path = _split(path, args.files)
        mib = sum(u["bytes"] for u in plan_read_units(f"{path}/events.parquet")) / 2**20
        plans = ["one_task", "exchange"] if i % 2 == 0 else ["exchange", "one_task"]
        hashes = {}
        for plan in plans:
            walls, hashes[plan] = run_plan(path, plan, args.cpus, args.reps)
            rss = walls.pop("rss_mib")
            lines.append({"rows": rows, "files": args.files, "planned_mib": round(mib, 2),
                          "cpus": args.cpus,
                          "plan": plan, "sum_s": round(sum(walls.values()), 3),
                          "rss_mib": rss, "query_s": walls})
            print(json.dumps(lines[-1]), flush=True)
        lines.append({"rows": rows, "files": args.files, "cpus": args.cpus,
                      "frames_differ": [n for n in QUERIES
                                        if hashes["one_task"][n] != hashes["exchange"][n]]})
        print(json.dumps(lines[-1]), flush=True)
    if args.json:
        with open(args.json, "a") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")


if __name__ == "__main__":
    main()
