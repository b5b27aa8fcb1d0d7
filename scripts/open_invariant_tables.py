#!/usr/bin/env python3
"""Reproduce the open-invariant tables for the weighted projective family.

Prints the disc invariants n_{1,l} with l twisted-sector insertions for
P(1,1,2) (closed form (-1)^j / 2^{2j} at l = 2j+1) and for the n = 3
member of the family, plus the exceptional generating function of the
Hirzebruch surface F_2. Every table is computed to the order that
`--order` gives.
"""

import argparse
import time

from orbimirror.extended import build_extended
from orbimirror.families import f2_fan, wpn_fan
from orbimirror.mirror import extract_open_gw, lf_superpotential


def family_table(n: int, order: int) -> None:
    fan = wpn_fan(n)
    ext = build_extended(fan)
    t0 = time.time()
    lf = lf_superpotential(ext, order)
    tab = extract_open_gw(lf, ext)
    exceptional = len(fan.stacky_vectors)  # the single extended ray
    print(f"\nP(1,...,1,{n})  [{tab.status}]  ({time.time() - t0:.2f}s)")
    print(f"{'l':>4}  invariant")
    for (j, qe, te), v in sorted(tab.entries.items()):
        if j == exceptional and all(x == 0 for x in qe) and sum(te) > 0:
            print(f"{te[0]:>4}  {v}")


def f2_table(order: int) -> None:
    ext = build_extended(f2_fan())
    lf = lf_superpotential(ext, order)
    tab = extract_open_gw(lf, ext)
    print(f"\nF_2  [{tab.status}]")
    print("ray  Q-exponents  invariant")
    for (j, qe, te), v in sorted(tab.entries.items()):
        print(f"{j:>3}  {[str(x) for x in qe]}  {v}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=14)
    args = ap.parse_args()
    family_table(2, args.order)
    family_table(3, args.order)
    f2_table(args.order)


if __name__ == "__main__":
    main()
