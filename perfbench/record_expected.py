#!/usr/bin/env python3
"""Record the sha256 of every CLI operation's stdout into expected.json.

    python3 perfbench/record_expected.py

Run it only at a commit whose outputs are known good: the benchmark counts
any later difference from these digests as a failed operation.  The CLI
operations are the same for every seed, so seed 0 covers them all.
"""

import json
import sys

import run


def main() -> int:
    run.import_fcheaps()
    import workloads
    digests = {}
    for size in workloads.SIZES:
        for name in workloads.PARTS:
            for op in workloads.build(name, 0, size, expected={}).ops:
                out = op.run()
                if isinstance(out, str):
                    digests[op.name] = workloads.digest(out)
    with open(workloads.EXPECTED_PATH, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests in {workloads.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
