"""Regenerate reference.json, the pinned outputs of every verify item.

    python3 perfbench/make_reference.py

For each item of the two verify workloads this stores the digest of the
seed-independent fields (each check's family, site, variant, `observed`,
`residual_norm` and `groups`, and each probe's status), with the check and
mismatch counts for reading.  Regenerate only when a change is meant to alter
those outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    params = wl.expand_params()
    reference = {}
    for name in ("verify_diagram", "verify_matrix"):
        for op in wl.verify_ops(name, seed=0):
            rc, output, error = run.run_op(op, params)
            if rc is None:
                print(error, file=sys.stderr)
                return 1
            reference[op.key] = wl.verify_summary(json.loads(output))
            print(op.key, reference[op.key]["mismatches"], "of", reference[op.key]["checks"],
                  file=sys.stderr)
    with open(wl.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
