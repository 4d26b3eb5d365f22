#!/usr/bin/env python3
"""Connect random pairs of period points on the K3 lattice by twistor chains.

Prints the link-count histogram (every chain has at most 3 links) and
re-verifies every chain with the independent invariant checks.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hkgeom import chain_connect, k3_lattice, sample_period_point, verify_chain


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    lattice = k3_lattice()
    lengths = Counter()
    start = time.monotonic()
    for i in range(args.pairs):
        z1 = sample_period_point(lattice, args.seed + 2 * i)
        z2 = sample_period_point(lattice, args.seed + 2 * i + 1)
        chain = chain_connect(z1, z2)
        verify_chain(chain, z1, z2)
        lengths[len(chain)] += 1
    elapsed = time.monotonic() - start
    print(f"pairs connected : {sum(lengths.values())}")
    for links, count in sorted(lengths.items()):
        print(f"{links} links         : {count}")
    print(f"elapsed         : {elapsed:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
