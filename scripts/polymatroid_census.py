#!/usr/bin/env python3
"""Count how often requests (G, c) share one basis set, and how many
relabelling classes the basis sets fall into.

Every verdict of `polylevel analyze` depends on the basis set alone, so
the repeated share is the share of requests that the memos of `facets`,
`analyze_polytope` and `delta_vector` can answer without work.  A class
is scanned, counted and analysed once, whatever its members' labels: its
first hull is the one whose `first` is None, so the count is exact while
the classes fit the memos (1024).  The run covers every connected
labelled graph on n vertices with every bound vector c in [1..cmax]^n.

Run: python scripts/polymatroid_census.py --n 4 --cmax 3
"""

import argparse
import itertools

import polylevel as pl


def connected_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for k in range(n - 1, len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            if len({v for e in edges for v in e}) < n:
                continue  # an isolated vertex; `pl.graph` admits none
            G = pl.graph(n, edges)
            if pl.is_connected(G):
                yield G


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--cmax", type=int, default=3)
    args = ap.parse_args()

    requests = 0
    seen = set()
    for G in connected_graphs(args.n):
        for c in itertools.product(range(1, args.cmax + 1), repeat=args.n):
            seen.add(pl.enumerate_bases(G, c))
            requests += 1
    print(f"requests: {requests}")
    print(f"distinct basis sets: {len(seen)}")
    print(f"relabelling classes: {sum(pl.facets(B).first is None for B in seen)}")
    print(f"repeated share: {1 - len(seen) / requests:.3f}")


if __name__ == "__main__":
    main()
