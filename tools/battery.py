"""Crash-proof full-battery runner.

Ray 2.49 can die with an internal ``task_manager.cc`` CHECK failure after
~2000 Datasets in ONE process (observed 2026-08-18 at query ~223 of a
225-query battery; a known upstream bug, not a query failure).  This
wrapper runs ``tools/driver_check.py`` in CHUNKS of queries, each chunk a
fresh process with a fresh Ray session, and aggregates the per-line
results — so a full sweep of all registered queries finishes regardless
of how many queries the registry grows to.

Completeness is tracked explicitly: every requested query name must
produce a result line.  If a chunk subprocess crashes (nonzero return
code, or names missing from its output), the missing queries are re-run
INDIVIDUALLY (fresh process each, up to --retries attempts); queries
still missing after retries are counted as MISSING in the summary and
fail the run — a crash can no longer silently under-count.

Usage:
    python tools/battery.py [--sf /root/testdata/sf0.01] [--chunk 40]
                            [--json BENCH/battery_rN.json]

A chunk that hangs past its bound is killed with its process group, then
``ray stop --force``; its unreported queries take the re-run / MISSING path.
A chunk that exits non-zero or is killed prints the tail of its stderr
(``STDERR <first query>: ...`` lines).

Prints one PASS/FAIL/---- line per query (streamed from the chunks) and
a final summary line; exit code 1 if any FAIL or MISSING.  With --json,
also writes the aggregated results in the driver's CORRECTNESS_r*.json
shape: {name: {rows_match, schema_match, hash_match, spark_rows,
oracle_rows, err}}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

# Bound on one driver_check run of n queries: SLOWEST_S + n * PER_QUERY_S.
# A run's wall is Ray start-up (~15 s) plus, per query, the Ray query AND
# its DuckDB oracle, which runs in the driver_check process itself.
# Measured on sf0.01 (BENCH/battery_r8.log, 4-vCPU host): the slowest
# query took 438 s end to end (pagerank_dup_graph, 403 s of it the
# oracle), the slowest 40-query chunk ~1590 s; every run of n consecutive
# sorted names, n = 1..447, fits in 32% of this bound.
SLOWEST_S = 1350
PER_QUERY_S = 120
# stderr lines shown for a run that exits non-zero or is killed
STDERR_TAIL = 20


def _bound(n: int) -> float:
    return SLOWEST_S + n * PER_QUERY_S


def _run_chunk(chunk: list[str], sf: str) -> tuple[dict[str, dict], int]:
    """Run one driver_check subprocess, killed after ``_bound(len(chunk))``
    seconds; return (results-by-name, returncode).  A run that exits
    non-zero or is killed prints the last ``STDERR_TAIL`` lines of its
    stderr."""
    fd, jsonl_path = tempfile.mkstemp(suffix=".jsonl", prefix="battery_")
    os.close(fd)
    os.unlink(jsonl_path)  # driver_check appends; start clean
    err = tempfile.TemporaryFile(prefix="battery_", suffix=".err")
    try:
        proc = subprocess.Popen(
            [sys.executable, "tools/driver_check.py", "--sf", sf,
             "--jsonl", jsonl_path, *chunk],
            stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        t0 = time.monotonic()
        try:
            proc.wait(timeout=_bound(len(chunk)))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            subprocess.run(["ray", "stop", "--force"], capture_output=True)
            print(f"TIMEOUT {len(chunk)} queries from {chunk[0]}: killed after "
                  f"{_bound(len(chunk)):.0f} s", flush=True)
        print(f"WALL {len(chunk)} queries from {chunk[0]}: "
              f"{time.monotonic() - t0:.0f} s, rc={proc.returncode}", flush=True)
        if proc.returncode != 0:
            err.seek(0)
            for line in err.read().decode(errors="replace").splitlines()[-STDERR_TAIL:]:
                print(f"STDERR {chunk[0]}: {line}", flush=True)
        results: dict[str, dict] = {}
        if os.path.exists(jsonl_path):
            with open(jsonl_path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    rec = json.loads(line)
                    results[rec.pop("name")] = rec
        return results, proc.returncode
    finally:
        err.close()
        if os.path.exists(jsonl_path):
            os.unlink(jsonl_path)


def _status(rec: dict) -> str:
    if rec.get("hash_match"):
        return "PASS"
    if rec.get("err") == "no_oracle":
        return "----"
    return "FAIL"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", default="/root/testdata/sf0.01")
    ap.add_argument("--chunk", type=int, default=40)
    ap.add_argument("--retries", type=int, default=2,
                    help="individual re-run attempts for queries whose "
                         "chunk produced no result line")
    ap.add_argument("--json", default=None,
                    help="write aggregated results (driver CORRECTNESS "
                         "shape) to this path")
    ap.add_argument("names", nargs="*",
                    help="optional subset of query names (default: all)")
    args = ap.parse_args()

    names = args.names or subprocess.run(
        [sys.executable, "-c",
         "import __ray_entry__ as e; print('\\n'.join(sorted(e.queries())))"],
        capture_output=True, text=True, check=True,
    ).stdout.split()

    all_results: dict[str, dict] = {}
    for lo in range(0, len(names), args.chunk):
        chunk = names[lo:lo + args.chunk]
        results, rc = _run_chunk(chunk, args.sf)
        for name in chunk:
            if name in results:
                rec = results[name]
                all_results[name] = rec
                print(f"{_status(rec)} {name}: {json.dumps(rec, default=str)[:400]}",
                      flush=True)
        missing = [n for n in chunk if n not in results]
        if rc != 0 and not missing and not any(
                _status(all_results[n]) == "FAIL" for n in chunk):
            # Crash AFTER the last query line (e.g. during ray.shutdown):
            # all results present, nothing to re-run — note it and move on.
            print(f"NOTE chunk [{lo}:{lo + len(chunk)}] exited rc={rc} "
                  f"after emitting all results", flush=True)
        for name in missing:
            print(f"RERUN {name}: chunk rc={rc}, no result line — "
                  f"retrying individually", flush=True)
            for attempt in range(args.retries):
                solo, _rc = _run_chunk([name], args.sf)
                if name in solo:
                    rec = solo[name]
                    all_results[name] = rec
                    print(f"{_status(rec)} {name}: "
                          f"{json.dumps(rec, default=str)[:400]}", flush=True)
                    break
            else:
                all_results[name] = {"err": f"MISSING: no result after "
                                            f"{args.retries} solo retries "
                                            f"(chunk rc={rc})"}
                print(f"MISS {name}: no result after retries", flush=True)

    n_pass = sum(1 for r in all_results.values() if _status(r) == "PASS")
    n_fail = sum(1 for r in all_results.values() if _status(r) == "FAIL"
                 and not str(r.get("err", "")).startswith("MISSING"))
    n_noracle = sum(1 for r in all_results.values() if _status(r) == "----")
    n_missing = sum(1 for n in names
                    if n not in all_results
                    or str(all_results[n].get("err", "")).startswith("MISSING"))
    failures = sorted(n for n, r in all_results.items()
                      if _status(r) == "FAIL")
    print(f"BATTERY SUMMARY: {n_pass} PASS, {n_fail} FAIL, "
          f"{n_noracle} no-oracle, {n_missing} MISSING, "
          f"{len(names)} registered")
    if failures:
        print("FAILED:", ", ".join(failures))

    if args.json:
        shaped = {}
        for name in names:
            r = all_results.get(name, {"err": "MISSING: never ran"})
            shaped[name] = {
                "rows_match": r.get("rows_match"),
                "schema_match": r.get("schema_match"),
                "hash_match": r.get("hash_match"),
                "spark_rows": r.get("rows"),
                "oracle_rows": r.get("oracle_rows"),
                "err": r.get("err"),
            }
        with open(args.json, "w") as fh:
            json.dump(shaped, fh, indent=1)
        print(f"wrote {args.json} ({len(shaped)} rows)")

    if failures or n_missing:
        sys.exit(1)


if __name__ == "__main__":
    main()
