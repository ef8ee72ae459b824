"""Record reference.json: every item's values at the default seed.

    python3 bench/record_reference.py

Each workload runs in a fresh worker process, as in a benchmark run, and
must pass its seed-independent gate.  Re-record only when a change is meant
to move the recorded numbers, and say so where the change is described.
"""

import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    items = {}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", w,
             "--seed", str(workloads.DEFAULT_SEED), "--record"],
            check=True, capture_output=True, text=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        bad = [row for row in res["items"] if row["misses"]]
        if bad:
            for row in bad:
                print(row["key"], row["misses"], file=sys.stderr)
            return 1
        for row in res["items"]:
            items[row["key"]] = row["reference"]
        print(f"{w}: {len(res['items'])} items", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "items": items}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
