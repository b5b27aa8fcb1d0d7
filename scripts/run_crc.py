#!/usr/bin/env python3
"""Run the full crepant-resolution report for the weighted family.

For each n this verifies crepancy of P(1,...,1,n) against its canonical
resolution, prints the chart gluing, and runs the open-CRC checks: for
n = 2 the exact composition g(f(tau)) = tau, the continuation against
-i(pi - g(x)) and the sampled comparison of the two potentials; for
n >= 3 one check of the continuation's x^1 coefficient against its
Gamma-reflection form (W_X = W_Y(Q) is not compared for n >= 3).

    python scripts/run_crc.py --max-n 6
"""

import argparse
import json

from orbimirror.crc import ResolutionPair, pair_report
from orbimirror.families import kp_bundle_fan, wpn_fan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--order", type=int, default=12)
    args = ap.parse_args()
    for n in range(2, args.max_n + 1):
        pair = ResolutionPair.make(wpn_fan(n), kp_bundle_fan(n))
        report = pair_report(pair, order=args.order)
        print(f"== P(1,...,1,{n}) ==")
        print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
