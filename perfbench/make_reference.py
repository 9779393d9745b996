"""Store reference records for the benchmark's correctness gate.

Usage, from the root of a checkout:

    python3 perfbench/make_reference.py

For every workload and for seeds 0-20 and the held-out seed it runs one
pass of snapshots and writes the SHA-256 of every snapshot's records CSV
and its VPLs, as the CSV holds them, to perfbench/reference/<workload>.json.gz.
It always rewrites the whole set, so no file is left with only some seeds.
`run.py` then counts a record whose VPL falls below its reference as
failed, and compares its sharpness probe with seed 0's references.
Regenerate only on a commit whose PLs are known to be right: the stored
values are the yardstick for every later change.
"""

from __future__ import annotations

import gzip
import hashlib
import json

import run

# Seeds 0-20, plus the held-out seed reserved for confirming claims.
SEEDS = list(range(21)) + [run.HELD_OUT_SEED]


def main():
    lib = run.import_library()
    table = lib["overbound"].default_table()
    run.REFERENCE.mkdir(exist_ok=True)
    for name, workload in sorted(run.WORKLOADS.items()):
        doc = {"vpl_format": "m, 6 decimals as in the records CSV; "
                             "null when not finite", "seeds": {}}
        for seed in SEEDS:
            sha, vpl = [], []
            for config, almanac in run.snapshots(lib, workload, seed):
                records, csv_text, _, _ = run.run_snapshot(
                    lib["sim"], config, almanac, table)
                sha.append(hashlib.sha256(csv_text.encode()).hexdigest())
                vpl.append([run.csv_vpl(r.vpl) for r in records])
            doc["seeds"][str(seed)] = {"sha256": sha, "vpl": vpl}
            print(f"{name} seed {seed}: {sum(map(len, vpl))} records",
                  flush=True)
        path = run.REFERENCE / f"{name}.json.gz"
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, separators=(",", ":")).encode())


if __name__ == "__main__":
    main()
