"""Interior splitting: pseudo-Gorenstein*, level*, reduced and int* degrees.

Definitions, for a full-dimensional lattice polytope P given by x >= 0 and
0/1-normal upper facets:

* P is pseudo-Gorenstein* when its interior holds exactly one lattice
  point (P is normal by construction for every polytope this package
  produces).

* P is level* when the interior is nonempty and every interior lattice
  point a of every dilate N*P splits as a = a0 + a' with a0 an interior
  lattice point of P and a' a lattice point of (N-1)*P.

* The reduced degree of an interior lattice point a of N*P is the least
  r >= 1 such that a = a0 + a' with a0 interior to r*P and a' in (N-r)*P;
  r = N always works.  The int* degree of P is the largest reduced degree
  over all dilates, and P is level* exactly when that degree is 1.

Finite scan bound.  What is proved: a point of reduced degree r >= 2 at
level N > r yields one of reduced degree exactly r at level r: split off
an interior summand a0 of r*P; were a0 = b0 + b' with b0 interior to s*P,
s < r, then a itself would split at s.  So the int* degree, if finite, is
reached at level N = r, and this needs no interior point of P.  The
degree scan uses it: the degrees >= 2 over the levels 2..top are exactly
the levels N there at which some interior point of N*P has reduced
degree N, one test per level (below).
What is tested, not proved: with an interior point of P the reduced
degree never exceeds n - 1 (`test_reduced_degree_bounded` checks the
per-point degrees and compares the int* degree against a scan to level
n + 1 on graph hulls with n <= 5).  So level*, the int* degree and the
spectrum are all read off one scan of levels 2..max(2, n-1).  With an
empty interior the true degree can exceed n - 1, the scan still stops
at the same default level, and the int* degree it reports may fall
short of the true one (a known gap, kept as it is).  The bound is
overridable for exploratory runs and recorded in reports.

Split tests.  Whether a point splits at degree r is decided by
`lattice._split_exists` with slack 1 (an interior summand), the closed
forms that `lattice._normality_scan` uses with slack 0.  With disjoint
aggregates, the witness is found by a descent on the knapsack rows
below, at r = 1.

Degrees by one test per level.  `_is_degree` asks whether some interior
point of N*P has reduced degree N.  If N*P has no interior point (the
all-ones test) the answer is no; if (N-1)*P has none it is yes.
Otherwise it hangs on whether splits are monotone in r, that is, whether
a point that splits at r splits at every r' > r.  They are when P has
the integer decomposition property: move a lattice point of P from the
other summand into the interior one.  A laminar system has it, being
totally unimodular, and so does every integral polymatroid (the
`lattice` docstring cites the theorems); `facets` and
`veronese_polytope` mark theirs with the type `Polymatroid`.  Then a
point has degree N exactly when it does not split at N - 1, and the
test asks that:

* with pairwise disjoint aggregates, by the knapsack below;
* for any other laminar system or `Polymatroid`, block by block.  The
  blocks are the connected components of the aggregate facet supports.
  Every facet lives in one block, so P is the product of its block
  polytopes, the interior of N*P is the product of the block interiors,
  and the summand window at (N, r) constrains each block separately: a
  point splits at r exactly when each of its block parts does, which
  needs no monotonicity.  So some point fails at N - 1 exactly when some
  block has more interior points than points that split at N - 1.  A
  lone coordinate always splits.  A laminar block is counted without
  visiting a point, by a dynamic program over its laminar forest that
  counts the interval propagation of `lattice._split_feasible_laminar`
  instead of testing it: per aggregate (A, t) the state is (s, lo, hi),
  s the sum over A and lo..hi the sums over A the summand can reach,
  pruned at s > N t - 1 and lo > r t - 1.  A crossing block is walked up
  to its first point with no split.

A hand-built system with crossing aggregates has no such theorem, and
splits need not be monotone: in {x1 <= 3, x4 <= 3, x1 + x2 <= 3,
x1 + x3 <= 5, x2 + x3 <= 5}, which is level*, the point (4, 4, 10, 1) of
the interior of 3P splits at r = 1 and r = 3 but not at r = 2.  Its
interior points of N*P are walked for one whose least split is N.
`budget` bounds the states of the dynamic programs of one level and the
nodes of every walk.

With pairwise disjoint aggregates a coordinate window is never empty, a
lone coordinate always splits, and a point of N*P fails to split at r
(here r = N - 1) exactly when, for some aggregate (A, t) with m members,

    top:     sum_A (a_i - (r u_i - 1))^+     >  (N - r) t,   or
    bottom:  sum_A max(1, a_i - (N - r) u_i) >  r t - 1,

an uncapped member adding 0 to the top sum and 1 to the bottom one.  Put
every member at 1 except a set S of capped ones pushed past their
threshold: a condition can be met under sum_A a <= N t - 1 exactly when
some S has sum_S mx_i >= need and sum_S cost_i + need <= N t - 1 - m,
with cost_i = r u_i - 2, mx_i = (N - r) u_i, need = (N - r) t + 1 for
the top and cost_i = (N - r) u_i, mx_i = r u_i - 2, need = r t - m for
the bottom, both written once, in `_met_conditions`.  One suffix
knapsack serves every test: rows[j][c] is the least cost of a set of
the capped members j.. whose mx sum to at least c, O(m N t) per
aggregate and condition.  The degree test reads row 0 at r = N - 1.  The
same rows give the witness at r = 1: with the first j members placed, a
member at value v gains (v - 1 - cost_i)^+ (an uncapped one nothing),
the need drops by the gains, and the room is N t - 1 less the placed sum
and the m - j members left; some completion meets the condition exactly
when rows[j][need] + need fits the room.  The test is exact, so a
descent over the coordinates never backtracks: each takes the least
value after which some aggregate can still fail, that is 1 unless its
own aggregate is the only one left that can.

The table's length.  A degree r >= 2 is met at level r (above), so the
least degree the tests find is the first level holding a failing point
(one without a degree-1 split): P is level* when it has an interior
point and no level has one, the witness is the lex-least failing point
of that level, and the report's table starts there.  The table is a
count that holds no point: its length, taken on demand, is per level the
interior count less the points that split at r = 1, counted block by
block as above (their product; none when P has no interior point).  The
degree of one point is `reduced_degree`.  The witness is asked only
when P has an interior point.  With disjoint aggregates it is the
descent above, which visits no point, where plain enumeration visits
every interior point before the witness; any other hull walks its
interior points in lex order up to the first that fails.  With plain
enumeration in place of the descent acceptance check A05 took 32 s,
against 1.9-2.1 s with it (single runs on a shared 2-vCPU Xeon host).

Relabelling.  Permuting the coordinates maps the lattice points of N*P,
and of its interior, onto those of the relabelled hull, and splits onto
splits, so the interior count, pseudo-Gorenstein*, level*, the degree
set, the int* degree, the spectrum, reflexivity and the table's length
are the same for every relabelling of P; only the lex-least witness
depends on the labels.  So `_report`, the memo by labelled hull, asks on
a miss a second memo, keyed by the class of P: (type(P), n, image).  The
image is the facet system with the coordinates renumbered in order of
their facet profile, the sorted (|A|, t) over the facets through the
coordinate, ties by label, as a sorted tuple of (|A|, renumbered A, t).
The image is itself a relabelling of P, so equal keys mean relabellings
of one polytope of one type, whatever the tie rule; a tie that is not a
symmetry of the facets can only leave two relabellings of P on two keys,
a miss, never a wrong answer.  The type is kept because `Polymatroid`
selects the degree test (a hand-built one that is no polymatroid gets
other answers).  On seed 1 of the benchmark's analyze workload the 576
hulls fall into 71 classes.  The first hull of a class to miss is the
one analysed; every other member gets its report with the witness, when
there is one, found again on its own labels at the class's witness
level, which every member shares, and with its own table.  A consequence:
`budget` bounds the work on the hull analysed, so a relabelling whose own
scan would exceed it may be answered from its class; that answer is
exact, and nothing is truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import prod

from .bounded import _cap, _integer
from .errors import BudgetExceededError
# `lattice_points` is not called here; it stays bound because the
# benchmark's tracer (perfbench/tracing.py) wraps these names in this module.
from .lattice import (
    DEFAULT_NODE_BUDGET,
    _Structure,
    _decomposes,
    _split_exists,
    _structure,
    _unit_gaps,
    count_lattice_points,
    iter_lattice_points,
    lattice_points,
    membership,
)
from .polymatroid import _MEMO_SIZE, HPolytope

ExponentVector = tuple[int, ...]


def pseudo_gorenstein_star(P: HPolytope, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Exactly one interior lattice point?"""
    return count_lattice_points(P, 1, "interior", budget=budget) == 1


def reduced_degree(P: HPolytope, a, N: int) -> int:
    """Least r such that a splits off an interior lattice point of r*P."""
    a = tuple(a)
    if not membership(P, a, N, "interior"):
        raise ValueError(f"{a} is not an interior lattice point of the {N}-fold dilate")
    return _least_split(_structure(P), a, N, 1)


# --- the failure conditions of an aggregate --------------------------------

def _cost_rows(items, need: int, cap: int) -> list[list[int]]:
    """Suffix knapsack: rows[j][c], for c in 0..need, is the least sum of
    cost over a set of the capped items j.. whose mx sum to at least c;
    a value of at least `cap` means that sum is `cap` or more, or that no
    set reaches c.  Costs are nonnegative."""
    rows = [[0] + [cap] * need]
    for item in reversed(items):
        row = rows[-1]
        if item is not None:                    # without the item, or with it
            cost, mx = item
            nxt, row = row, row[:]
            for c in range(1, need + 1):
                with_item = cost + nxt[c - mx if c > mx else 0]
                if with_item < row[c]:
                    row[c] = with_item
        rows.append(row)
    rows.reverse()
    return rows


def _met_conditions(st: _Structure, A: tuple[int, ...], t: int, N: int, r: int):
    """Yield (need, items, rows) for each of the top and bottom conditions
    of the module docstring that some part over the aggregate (A, t),
    interior to N*P, meets at r: items[j] is (cost, mx) for a capped
    member A[j], None for an uncapped one, which gains nothing.  Rows are
    built one condition at a time, so a caller that stops at the first
    condition met never builds the other's.  Valid when r*P has an
    interior point."""
    us = [st.u[i - 1] for i in A]
    room = N * t - 1 - len(A)
    top = (N - r) * t + 1, [None if u is None else (r * u - 2, (N - r) * u) for u in us]
    bottom = r * t - len(A), [None if u is None else ((N - r) * u, r * u - 2) for u in us]
    for need, items in (top, bottom):   # need >= 1, as r*P has an interior point
        if need <= room:
            rows = _cost_rows(items, need, room + 1)
            if rows[0][need] + need <= room:
                yield need, items, rows


# --- the lex-least point with no degree-1 split ----------------------------

def _witness(P: HPolytope, st: _Structure, N: int, budget: int):
    """The lex-least interior point of N*P with no degree-1 split, or None;
    P has an interior point.  With pairwise disjoint aggregates, by the
    descent of the module docstring; any other hull is walked in lex
    order."""
    if not st.disjoint:
        return next((a for a in iter_lattice_points(P, N, "interior", budget=budget)
                     if not _split_exists(st, a, N, 1, 1)), None)
    # per aggregate: (need left, items, rows) of each condition it can still meet
    conds = [list(_met_conditions(st, A, t, N, 1)) for A, t in st.aggs]
    if not any(conds):
        return None
    used = [0] * len(conds)             # per aggregate: the sum of its placed members
    point = []
    for i in range(st.n):
        v = 1                           # a lone coordinate always splits
        if st.agg_at[i]:
            k = st.agg_at[i][0]                     # disjoint: the only one
            A, t = st.aggs[k]
            left = st.after[k][i]                   # members still to place
            j = len(A) - left                       # this is member j - 1 of A
            room = N * t - 1 - used[k] - left

            def alive(v: int) -> list:  # the conditions some completion meets, a_i = v
                out = []
                for need, items, rows in conds[k]:
                    item = items[j - 1]
                    rest = max(0, need - (0 if item is None else max(0, v - 1 - item[0])))
                    if rows[j][rest] + rest <= room - v:
                        out.append((rest, items, rows))
                return out

            others = any(c for h, c in enumerate(conds) if h != k)
            while not (now := alive(v)) and not others:
                v += 1
            conds[k] = now
            used[k] += v
        point.append(v)
    return tuple(point)


def _least_split(st: _Structure, a: ExponentVector, N: int, r: int) -> int:
    """Least degree >= r at which the interior point a of N*P splits."""
    while not _split_exists(st, a, N, r, 1):
        r += 1
    return r


# --- one test per level, and the degree-1 count, by block -----------------

def _restrict(P: HPolytope, members: tuple[int, ...]) -> HPolytope:
    """The block polytope: the facets supported in `members`, renumbered
    1..; it keeps the type of P, as a block of a `Polymatroid` is one."""
    local = {v: k for k, v in enumerate(members, 1)}
    return type(P)(len(members), tuple(
        (tuple(local[i] for i in A), t) for A, t in P.upper_facets if A[0] in local
    ))


def _interior_at(Q: HPolytope, r: int) -> bool:
    """Has r*Q an interior lattice point?  The all-ones point is the least
    candidate, and a split at r needs one."""
    return all(len(A) <= r * t - 1 for A, t in Q.upper_facets)


def _coordinate_states(u: int | None, N: int, r: int, top: int) -> dict:
    """(a, window lo, window hi) of one coordinate, a in 1..top and below its
    cap, for the values whose summand window is nonempty."""
    if u is None:
        return {(a, 1, a): 1 for a in range(1, top + 1)}
    cells = ((a, max(1, a - (N - r) * u), min(a, r * u - 1))
             for a in range(1, min(N * u - 1, top) + 1))
    return {c: 1 for c in cells if c[1] <= c[2]}


def _subtree_states(st: _Structure, k: int, N: int, r: int, spend) -> dict:
    """Count the parts over A of the interior points of N*P, aggregate k
    being (A, t), by (s, lo, hi): s their sum over A, lo..hi the sums over
    A that a summand interior to r*P can take, as `_split_feasible_laminar`
    propagates them.  Parts with no such summand are dropped."""
    _A, t = st.aggs[k]
    top_s, top_x = N * t - 1, r * t - 1
    parts = [_subtree_states(st, ch, N, r, spend) for ch in st.forest[k]]
    parts += [_coordinate_states(st.u[i - 1], N, r, top_s) for i in st.own[k]]
    states = {(0, 0, 0): 1}
    for part in parts:
        nxt: dict = {}
        for (s1, lo1, hi1), c1 in states.items():
            for (s2, lo2, hi2), c2 in part.items():
                s, lo = s1 + s2, lo1 + lo2
                if s <= top_s and lo <= top_x:
                    key = (s, lo, min(hi1 + hi2, top_x))
                    nxt[key] = nxt.get(key, 0) + c1 * c2
        spend(len(nxt))
        states = nxt
    out: dict = {}
    for (s, lo, hi), c in states.items():
        lo = max(lo, s - (N - r) * t)
        if lo <= hi:
            out[(s, lo, hi)] = out.get((s, lo, hi), 0) + c
    return out


def _state_budget(budget: int):
    """A `spend(states)` for the dynamic programs of one count, raising
    once they hold more than `budget` states in all."""
    spent = 0

    def spend(states: int) -> None:
        nonlocal spent
        spent += states
        if spent > budget:
            raise BudgetExceededError(f"degree count exceeded {budget} states",
                                      cap="budget", limit=budget)

    return spend


def _block_splits(Q: HPolytope, N: int, r: int, budget: int, spend) -> int:
    """The interior points of N*Q that split at r, for Q one block and r*Q
    with an interior point: a lone coordinate always splits, a laminar
    block is counted by its dynamic program, whose root is its largest
    aggregate, and a crossing block is walked."""
    st = _structure(Q)
    if not st.aggs:
        return count_lattice_points(Q, N, "interior", budget=budget)
    if st.laminar:
        return sum(_subtree_states(st, len(st.aggs) - 1, N, r, spend).values())
    return sum(1 for a in iter_lattice_points(Q, N, "interior", budget=budget)
               if _split_exists(st, a, N, r, 1))


def _is_degree(P: HPolytope, N: int, budget: int) -> bool:
    """Has some interior point of N*P reduced degree N?  Decided as the
    module docstring says, by facet structure; `budget` bounds the states
    of the dynamic programs of this level and the nodes of each walk."""
    if not _interior_at(P, N):
        return False
    if not _interior_at(P, N - 1):
        return True
    st = _structure(P)
    if st.disjoint:
        # the first condition met stops the search
        return any(True for A, t in st.aggs for _ in _met_conditions(st, A, t, N, N - 1))
    if not _decomposes(P):
        return any(_least_split(st, a, N, 1) == N
                   for a in iter_lattice_points(P, N, "interior", budget=budget))
    spend = _state_budget(budget)
    blocks = {_restrict(P, members) for members in st.blocks if len(members) > 1}
    return any(_block_fails(Q, N, budget, spend) for Q in blocks)


def _block_fails(Q: HPolytope, N: int, budget: int, spend) -> bool:
    """Has some interior point of N*Q, Q one block, no split at N - 1?  A
    crossing block is walked up to its first such point."""
    st = _structure(Q)
    if st.laminar:
        return (count_lattice_points(Q, N, "interior", budget=budget)
                > _block_splits(Q, N, N - 1, budget, spend))
    return any(not _split_exists(st, a, N, N - 1, 1)
               for a in iter_lattice_points(Q, N, "interior", budget=budget))


def _degree_one_count(P: HPolytope, N: int, budget: int) -> int:
    """The interior points of N*P that split at r = 1: the product over the
    blocks of their counts, and 0 when P has no interior point."""
    if not _interior_at(P, 1):
        return 0
    spend = _state_budget(budget)
    blocks = [_restrict(P, members) for members in _structure(P).blocks]
    counts = {Q: _block_splits(Q, N, 1, budget, spend) for Q in set(blocks)}
    return prod(counts[Q] for Q in blocks)


def _top_level(P: HPolytope, max_level: int | None) -> int:
    """The last scanned level: `max_level`, an integer of at least 2, or by
    default max(2, n - 1)."""
    if max_level is None:
        return max(2, P.n - 1)
    max_level = _integer(max_level, "max_level")
    if max_level < 2:
        raise ValueError("max_level must be at least 2")
    return max_level


class _DegreeTable:
    """The number of scanned points of reduced degree >= 2, holding no
    point, as `LevelnessReport` describes it."""

    def __init__(self, P: HPolytope, levels, budget: int):
        self._P, self._levels, self._budget = P, levels, budget
        self._len = None

    def __len__(self) -> int:
        if self._len is None:
            P, budget = self._P, self._budget
            self._len = sum(count_lattice_points(P, N, "interior", budget=budget)
                            - _degree_one_count(P, N, budget) for N in self._levels)
        return self._len

    def __eq__(self, other):
        if not isinstance(other, _DegreeTable):
            return NotImplemented
        return (self._P, self._levels) == (other._P, other._levels)


@dataclass(frozen=True)
class LevelnessReport:
    """Verdicts and witnesses for one polytope.

    Every levelness answer is read off one set, the reduced degrees >= 2
    over levels 2..scan_bound; its least element is the first level with a
    point that has no degree-1 split (the module docstring).  P is level*
    when it has an interior point and the set is empty.  Otherwise
    `failure_witness` carries (level, point, explanation) for the lex-least
    such point at that level; an empty interior fails without one.  The
    int* degree and the spectrum read the same set, and `level_star` reads
    `level` and the witness.  `reduced_degree_table` is the number of
    scanned points of reduced degree at least 2, from the least degree on,
    given by `len()`; degree-1 points are ubiquitous and left out.  It
    holds no point: its length is counted by block on the first `len()`
    and kept (so a `budget` too small for that count raises there), and
    `reduced_degree` gives the degree of one point.  Two tables are equal
    when their polytopes and levels are.
    """

    n: int
    interior_count_1: int
    pseudo_gorenstein: bool
    level: bool
    reflexive_up_to_translation: bool | None
    int_star_degree: int | None
    failure_witness: tuple[int, ExponentVector, str] | None
    reduced_degree_table: _DegreeTable
    conjecture_spectrum_holds: bool | None
    scan_bound: int


def analyze_polytope(P: HPolytope, max_level: int | None = None,
                     budget: int = DEFAULT_NODE_BUDGET) -> LevelnessReport:
    """The `LevelnessReport` of P.  Answers are memoized by (P, scan bound,
    budget) (see `polymatroid._MEMO_SIZE`), however the call spells them,
    so calls that ask for one report share one frozen report, and shared
    by the relabellings of P (the module docstring); a raised error is not
    kept.  `budget` is an integer >= 1."""
    return _report(P, _top_level(P, max_level), _cap(budget, "budget"))


class _Relabelling(tuple):
    """The key (type(P), n, image) of the relabelling class of P, as the
    module docstring defines it; `hull` is the P it was made from, the
    hull a memo keyed by it analyses on a miss."""

    hull: HPolytope


def _relabelling(P: HPolytope) -> _Relabelling:
    """The class key of P, with P as its `hull`."""
    profile: dict[int, list] = {i: [] for i in range(1, P.n + 1)}
    for A, t in P.upper_facets:
        for i in A:
            profile[i].append((len(A), t))
    # by facet profile; the sort is stable, so ties keep the label order
    order = sorted(profile, key=lambda i: sorted(profile[i]))
    label = {i: k for k, i in enumerate(order, 1)}
    image = sorted((len(A), tuple(sorted(label[i] for i in A)), t) for A, t in P.upper_facets)
    key = _Relabelling((type(P), P.n, tuple(image)))
    key.hull = P
    return key


@lru_cache(maxsize=_MEMO_SIZE)
def _report(P: HPolytope, scan_bound: int, budget: int) -> LevelnessReport:
    rep = _class_report(_relabelling(P), scan_bound, budget)
    table = rep.reduced_degree_table
    if table._P == P:
        return rep
    witness = rep.failure_witness
    if witness is not None:     # the same level for every relabelling
        N, _point, why = witness
        witness = (N, _witness(P, _structure(P), N, budget), why)
    return replace(rep, failure_witness=witness,
                   reduced_degree_table=_DegreeTable(P, table._levels, budget))


@lru_cache(maxsize=_MEMO_SIZE)
def _class_report(key: _Relabelling, scan_bound: int, budget: int) -> LevelnessReport:
    """The report of `key.hull`, the first hull of its class to miss."""
    P = key.hull
    # one count serves every interior question: the interior points are
    # closed downwards within x >= 1, so P has one exactly when the
    # all-ones test `_interior_at(P, 1)` passes
    interior1 = count_lattice_points(P, 1, "interior", budget=budget)
    pg = interior1 == 1
    degrees = {N for N in range(2, scan_bound + 1) if _is_degree(P, N, budget)}
    first = min(degrees, default=scan_bound + 1)
    witness = None
    if degrees and interior1 > 0:
        witness = (first, _witness(P, _structure(P), first, budget),
                   f"no interior summand of the base polytope splits off at level {first}")
    int_star = max(degrees, default=1 if interior1 > 0 else None)
    spectrum = None if int_star is None else all(i in degrees for i in range(2, int_star))
    return LevelnessReport(
        n=P.n,
        interior_count_1=interior1,
        pseudo_gorenstein=pg,
        level=not degrees and interior1 > 0,
        reflexive_up_to_translation=_unit_gaps(P) if pg else None,
        int_star_degree=int_star,
        failure_witness=witness,
        reduced_degree_table=_DegreeTable(P, range(first, scan_bound + 1), budget),
        conjecture_spectrum_holds=spectrum,
        scan_bound=scan_bound,
    )


def level_star(P: HPolytope, max_level: int | None = None,
               budget: int = DEFAULT_NODE_BUDGET):
    """Decide level*; returns (verdict, witness) with the lex-least failing
    (N, point) on the negative side, or (False, None) for empty interior:
    the report's `level` and the first two fields of its `failure_witness`."""
    rep = analyze_polytope(P, max_level, budget)
    return rep.level, rep.failure_witness and rep.failure_witness[:2]


def int_star_degree(P: HPolytope, max_level: int | None = None,
                    budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest reduced degree over dilation levels 1..max(2, n-1), or up
    to `max_level` (at least 2): the report's `int_star_degree`."""
    rep = analyze_polytope(P, max_level, budget)
    if rep.int_star_degree is None:
        raise ValueError(f"empty interior: no dilate up to level {rep.scan_bound} has interior points")
    return rep.int_star_degree


def conjecture_spectrum(P: HPolytope, max_level: int | None = None,
                        budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """With d the int* degree: is every degree 1 <= i < d realized in the
    scan?  The report's `conjecture_spectrum_holds`."""
    spectrum = analyze_polytope(P, max_level, budget).conjecture_spectrum_holds
    if spectrum is None:
        raise ValueError("empty interior: spectrum undefined")
    return spectrum
