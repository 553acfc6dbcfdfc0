"""Recompute frozen_counts.json with the brute-force oracles in reference.py.

    python3 perfbench/freeze_counts.py

For every member of the `lattices` family it stores |Sub|, |Con|, |Idem|
and the number of transversal (B, omega) pairs. All four are invariant
under relabelling, so they hold for every seed. The library is used only to
build the catalog tables.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
from workloads import FROZEN_COUNTS, lattice_members, ops_of  # noqa: E402


def main():
    counts = {}
    for A, _ in lattice_members():
        n, ops = A.size, ops_of(A)
        subs = ref.subalgebras(n, ops)
        cons = ref.congruences(n, ops)
        counts[A.name] = {
            "sub": len(subs),
            "con": len(cons),
            "idem": len(ref.idempotent_endomorphisms(n, ops)),
            "pairs": ref.transversal_pairs(subs, cons),
        }
        print(A.name, counts[A.name], flush=True)
    FROZEN_COUNTS.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
