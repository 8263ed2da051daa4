#!/usr/bin/env python3
"""Classify all trees up to isomorphism (`polylevel.trees`) by the
leaf-distance rule and confirm each verdict with a direct bound-vector
search.  Needs only the standard library.

Run: python scripts/tree_census.py --nmax 7
Exits 1 when some verdict and search disagree (the lines marked ???).
"""

import argparse
import sys

import polylevel as pl


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nmax", type=int, default=7)
    ap.add_argument("--cmax", type=int, default=2)
    args = ap.parse_args()

    good = bad = mismatches = 0
    for n in range(2, args.nmax + 1):
        for G in pl.trees(n):
            rule = pl.tree_labeling_pseudo_gorenstein(G)
            found = pl.search_labeling(G, args.cmax)
            agree = rule == (found is not None)
            mismatches += not agree
            mark = "OK " if agree else "???"
            if rule:
                good += 1
            else:
                bad += 1
            print(f"{mark} n={n} edges={sorted(G.edges)} rule={rule} witness={found}")
    print(f"\nadmitting a witness: {good}, not admitting: {bad}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
