"""Write perfbench/golden_verify.json, the golden snapshot for the verify workloads.

    python3 perfbench/make_golden.py

Runs every default-grid point of the verify workloads through
`gwa verify <T> --grid <point> --json` and stores each output under its grid
key.  The committed file is the output of the commit that introduced the
benchmark; regenerate it only for an intended change to the claim output.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main():
    golden = {}
    for theorem, points in workloads.DEFAULT_POINTS.items():
        for point in points:
            rc, out, err = workloads.run_verify(theorem, point)
            if rc != 0:
                sys.exit(f"{theorem} {point}: exit code {rc}\n{err}")
            golden[workloads.grid_key(theorem, point)] = json.loads(out)
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
