"""S5 — per-partition manifest / checkpoint store (SURVEY.md §2.2 S5, §4.4).

One JSON file per finished output partition, written atomically
(tmp + os.replace).  Presence of ``part=<pid>.json`` is the commit record:
the partition's data file was fully written before the manifest appears,
so a killed run leaves either nothing or a complete partition — never a
torn one.  Resume (J2) = read the manifest dir, skip finished pids.

Lineage carried per BASELINE.json:6: input fragment ids, encoder state
hash, rows emitted, tokens processed, wall seconds, engine version.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

MANIFEST_SCHEMA = pa.schema(
    [
        ("part_id", pa.int32()),
        ("input_fragments", pa.list_(pa.string())),
        ("encoder_state_hash", pa.string()),
        ("rows_emitted", pa.int64()),
        ("tokens_processed", pa.int64()),
        ("wall_s", pa.float64()),
        ("engine_version", pa.string()),
    ]
)


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "manifest")


def write_manifest_row(out_dir: str, row: dict) -> None:
    d = manifest_dir(out_dir)
    os.makedirs(d, exist_ok=True)
    final = os.path.join(d, f"part={row['part_id']:06d}.json")
    tmp = final + ".tmp"
    try:
        with open(tmp, "w") as f:
            json.dump(row, f, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
    except BaseException:
        # a failed or cancelled commit leaves no tmp behind
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_manifest(out_dir: str) -> list[dict]:
    d = manifest_dir(out_dir)
    if not os.path.isdir(d):
        return []
    rows = []
    for name in sorted(os.listdir(d)):
        if name.startswith("part=") and name.endswith(".json"):
            with open(os.path.join(d, name)) as f:
                rows.append(json.load(f))
    return rows


def finished_part_ids(out_dir: str) -> set[int]:
    return {r["part_id"] for r in read_manifest(out_dir)}


def manifest_table(out_dir: str) -> pa.Table:
    rows = read_manifest(out_dir)
    if not rows:
        return MANIFEST_SCHEMA.empty_table()
    return pa.Table.from_pylist(rows, schema=MANIFEST_SCHEMA)
