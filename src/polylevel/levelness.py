"""Interior splitting: pseudo-Gorenstein*, level*, reduced and int* degrees.

Definitions, for a full-dimensional lattice polytope P given by x >= 0 and
0/1-normal upper facets:

* P is pseudo-Gorenstein* when its interior holds exactly one lattice
  point (P is normal, as every polytope the package accepts has the
  integer decomposition property: the `polymatroid` docstring).

* P is level* when the interior is nonempty and every interior lattice
  point a of every dilate N*P splits as a = a0 + a' with a0 an interior
  lattice point of P and a' a lattice point of (N-1)*P.

* The reduced degree of an interior lattice point a of N*P is the least
  r >= 1 such that a = a0 + a' with a0 interior to r*P and a' in (N-r)*P;
  r = N always works.  The int* degree of P is the largest reduced degree
  over all dilates, and P is level* exactly when that degree is 1.

Degrees at their own level.  A point of reduced degree r >= 2 at level
N > r yields one of reduced degree exactly r at level r: split off an
interior summand a0 of r*P; were a0 = b0 + b' with b0 interior to s*P,
s < r, then a itself would split at s.  So the degrees >= 2 are exactly
the levels N >= 2 at which some interior point of N*P has reduced degree
N, one test per level (below), and this needs no interior point of P.

The degrees form an interval.  Let c, the codegree, be the least N with
an interior point of N*P; the all-ones point is interior to (n+1)*P, so
c <= n + 1.  The degrees >= 2 are exactly the levels max(2, c)..d, d the
int* degree, and d <= n + 1.  So the scan tests max(2, c), then the next
level, and stops at the first level that holds no degree; levels below
c hold no interior point and are not tested.  With an interior point of
P (c = 1) it starts at level 2: P is level* exactly when level 2 holds
no degree, and every witness is at level 2.  The proof, for P an
integral polymatroid with rank f, I_N the interior lattice points of N*P
and R_N(X) the largest x(X) over I_N:

1. I_N - 1, each point less the all-ones point, is the lattice-point set
   of an integral polymatroid.  An interior point has x(X) <= N f(X) - 1
   for every nonempty X, as x(X) is not constant on the full-dimensional
   N*P.  So I_N - 1 is the set of lattice points y >= 0 with
   y(X) <= N f(X) - |X| - 1, and that bound is intersecting submodular:
   f is submodular, |X| modular, and the -1 is on both sides when X and
   Y meet.  Such a bound, integral and, for N >= c, nonnegative, defines
   an integral polymatroid (Edmonds 1970; Fujishige, Submodular
   Functions and Optimization, 2005).
2. I_{N-1} + (P cap Z^n) lies in I_N, and equals it exactly when
   R_N = R_{N-1} + f on every X.  The lattice points of a sum of
   integral polymatroids are the sums of their lattice points, and the
   ranks add (the polymatroid sum theorem: Edmonds 1970, McDiarmid
   1975).  So, less the all-ones point, the left side is the lattice-point
   set of an integral polymatroid of rank R_{N-1} + f - |X| inside that
   of step 1, of rank R_N - |X|, and the two are equal exactly when
   their ranks are.
3. Splits are monotone in r (below), so a level N > c holds a point of
   reduced degree N exactly when some point of I_N does not split at
   N - 1, that is when the equality of step 2 fails at some X.  Level c
   holds one when c >= 2, as no level below it has an interior point.
4. At every integral N >= c, R_N(X) is the optimum of the linear program
   max x(X) over x >= 1 and x(Y) <= N f(Y) - 1, whose polytope is
   integral by step 1.  Its right-hand side is affine in N, so R_N(X)
   is concave in N from c on.  So the steps R_N - R_{N-1} never
   increase, by step 2 they never fall below f, and once they equal f
   on every X they stay equal: the levels above c that hold a degree
   are c + 1..d.

Every polytope the package accepts is an integral polymatroid: a
`Polymatroid` by contract, and a laminar `HPolytope` by step 1's
theorem.  Its facets x(A) <= t run over a laminar family, which is an
intersecting family (two members that meet are nested, so their union
and intersection are the two members), and any bound vector is modular
on nested pairs, so intersecting submodular.

The bound d <= n + 1.  P is normal, so its Ehrhart ring R (over Q) is
generated by the lattice points of P in degree 1 and is Cohen-Macaulay
(Hochster 1972), of dimension n + 1.  The interior points span its
canonical module omega (Danilov-Stanley), and by monotone splits a point
of reduced degree N at level N is exactly one that is no sum of an
interior point of (N-1)*P and a lattice point of P: a minimal generator
of omega.  Modulo a linear system of parameters, omega is the dual of an
Artinian ring shifted by n + 1, so its generators have degree at most
n + 1 (graded Nakayama; Bruns-Herzog, Cohen-Macaulay Rings, 1993, ch. 3
and 6).  A degree at level n + 2 is therefore an internal error, raised
as RuntimeError, not a cap; `budget` bounds the work of each level.

Split tests.  Whether a point splits at degree r is decided by
`lattice._split_exists` with slack 1 (an interior summand), the closed
forms that `lattice._normality_scan` uses with slack 0.

Degrees by one test per level.  `_is_degree` asks whether some interior
point of N*P has reduced degree N.  If N*P has no interior point (the
all-ones test) the answer is no; if (N-1)*P has none it is yes.
Otherwise splits are monotone in r: a point that splits at r splits at
every r' > r, since P has the integer decomposition property (a
`Polymatroid` by Herzog-Hibi, a laminar `HPolytope` by Baum-Trotter; the
`lattice` docstring cites both), so a lattice point of P moves from the
other summand into the interior one.  So a point has degree N exactly
when it does not split at N - 1, and by steps 1-2 some point fails so
exactly when R_N(X) > R_{N-1}(X) + f(X) for some X.  The test asks it
block by block.  The blocks are the connected components of the
aggregate facet supports.  Every facet lives in one block, so P is the
product of its block polytopes, the interior of N*P is the product of
the block interiors, and the summand window at (N, r) constrains each
block separately: a point splits at r exactly when each of its block
parts does, which needs no monotonicity.  Likewise each rank is the sum
of its blocks' ranks, so X runs over the subsets of one block.  A lone
coordinate always splits, and a block of one aggregate asks the
knapsack below.

Any other block takes the rank test, `_rank_fails`.  Each rank is a
polymatroid greedy (Edmonds 1970; Fujishige 2005): raising the
coordinates of X in index order, each as far as the polymatroid allows,
maximizes x(X).  For R_N, the polymatroid I_N - 1 of step 1, start at
the all-ones point and raise each i in X by the least slack
N t - 1 - x(A) of the facets (A, t) through i; for f start at 0, with
the slacks t - x(A).  The facet rows may cut out more than the rank
inequalities, but they hold the same lattice points, and a step by
their least slack from a lattice point is integral, so it stays in the
polymatroid and is no shorter than its own step: the greedies read the
facet rows of `_structure` alone.  The subsets are visited depth first,
X u {i} with i > max X after X, each extending the greedy points of X
by one step (memory O(b facets) for a block of b members).  As
R_N >= R_{N-1} + f on every X (step 2), the first X u {i} to fail is
the first whose step for i gains more under R_N than under R_{N-1} and
f together.  A level costs at most 2^b - 1 steps per block, and
`budget` bounds the subsets that one block visits.  The knapsack is
kept for a block of one aggregate, as it is polynomial in N t: the
rank test would visit 2^16 subsets per level of the n = 16 hull of
`tests/catalogue.py`, which the knapsack answers in under 0.01 s.

In a block of one aggregate (A, t) with m members a coordinate window
is never empty, and the part over A of a point of N*P fails to split at
r exactly when

    top:     sum_A (a_i - (r u_i - 1))^+     >  (N - r) t,   or
    bottom:  sum_A max(1, a_i - (N - r) u_i) >  r t - 1,

an uncapped member adding 0 to the top sum and 1 to the bottom one.  Put
every member at 1 except a set S of capped ones pushed past their
threshold: a condition can be met under sum_A a <= N t - 1 exactly when
some S has sum_S mx_i >= need and sum_S cost_i + need <= N t - 1 - m,
with cost_i = r u_i - 2, mx_i = (N - r) u_i, need = (N - r) t + 1 for
the top and cost_i = (N - r) u_i, mx_i = r u_i - 2, need = r t - m for
the bottom, both written once, in `_met_conditions`.  A suffix knapsack
decides it: rows[j][c] is the least cost of a set of the capped members
j.. whose mx sum to at least c, O(m N t) per condition.  The degree test
reads row 0 at r = N - 1.  The witness descends at r = 1: with the first
j members placed, a member at value v gains (v - 1 - cost_i)^+ (an
uncapped one nothing), the need drops by the gains, and the room is
N t - 1 less the placed sum and the m - j members left; some completion
meets the condition exactly when rows[j][need] + need fits the room.
The test is exact, so a descent finds the lex-least part that meets a
condition without backtracking, each member at the least value after
which some completion still meets it; the block's lex-least failing
part is the lesser of the two conditions' (`_descent`).

The table's length.  The report's table covers the levels from
max(2, c) to the last level tested.  It is a count that holds no point:
its length, taken on demand, is per level the interior count less the
points that split at r = 1.  Those are a product over the blocks (none
when P has no interior point): every point of a lone coordinate splits,
and each other distinct block is walked once, counting its interior
points of N*P that pass `_split_exists`, so `budget` bounds the nodes of
each walk.  The degree of one point is `reduced_degree`.

The witness, block by block.  With an interior point of P every block's
all-ones part splits at r = 1, so the lex-least failing point of N*P is
the least, over the blocks B that can fail, of the point that is 1
outside B and B's lex-least failing part inside: any point whose part
over B fails is at least that.  This holds for every facet system.  A
walk of the whole hull multiplies a block's walk by the ranges of every
other coordinate (on the n = 12 laminar hull of `tests/catalogue.py`,
8.5 s and over 10^5 nodes against 0.01 s); with plain enumeration in
place of the descent, acceptance check A05 took 32 s against 1.9-2.1 s
(single runs on a shared 2-vCPU Xeon host).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import count
from math import prod

from .bounded import _MEMO_SIZE, _cap
from .errors import BudgetExceededError
# `lattice_points` is not called here; it stays bound because the
# benchmark's tracer (perfbench/tracing.py) wraps these names in this module.
from .lattice import (
    DEFAULT_NODE_BUDGET,
    _Structure,
    _interior_at,
    _restrict,
    _split_exists,
    _structure,
    _unit_gaps,
    count_lattice_points,
    iter_lattice_points,
    lattice_points,
    membership,
    pseudo_gorenstein_star,
)
from .polymatroid import HPolytope

ExponentVector = tuple[int, ...]


def reduced_degree(P: HPolytope, a, N: int) -> int:
    """Least r such that a splits off an interior lattice point of r*P."""
    a = tuple(a)
    if not membership(P, a, N, "interior"):
        raise ValueError(f"{a} is not an interior lattice point of the {N}-fold dilate")
    return _least_split(_structure(P), a, N, 1)


# --- the lex-least failing part over one aggregate ------------------------

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


def _descent(st: _Structure, k: int, N: int):
    """The lex-least part over the aggregate k, alone in its block, of an
    interior point of N*P with no degree-1 split, or None: the least of the
    descents of the conditions met (the module docstring)."""
    A, t = st.aggs[k]
    parts = []
    for need, items, rows in _met_conditions(st, A, t, N, 1):
        part, room = [], N * t - 1 - len(A)
        for j, item in enumerate(items, 1):     # member j - 1 of A takes the least
            for v in count(1):                  # value some completion allows
                rest = max(0, need - (0 if item is None else max(0, v - 1 - item[0])))
                if rows[j][rest] + rest <= room - (v - 1):
                    break
            part.append(v)
            need, room = rest, room - (v - 1)
        parts.append(tuple(part))
    return min(parts, default=None)


# --- the lex-least point with no degree-1 split ----------------------------

def _witness(P: HPolytope, N: int, budget: int):
    """The lex-least interior point of N*P with no degree-1 split, or None,
    block by block (the module docstring); P has an interior point."""
    st = _structure(P)
    failing = []
    for block in (b for b in st.blocks if len(b) > 1):  # a lone coordinate splits
        k = _sole_aggregate(st, block)
        part = (_descent(st, k, N) if k is not None
                else _first_failure(_restrict(P, block), N, budget))
        if part is not None:
            at = dict(zip(block, part))
            failing.append(tuple(at.get(i, 1) for i in range(1, P.n + 1)))
    return min(failing, default=None)


def _first_failure(Q: HPolytope, N: int, budget: int):
    """The lex-least interior point of N*Q with no degree-1 split, or None,
    by a walk of the interior in lex order; Q has an interior point."""
    st = _structure(Q)
    return next((a for a in iter_lattice_points(Q, N, "interior", budget=budget)
                 if not _split_exists(st, a, N, 1, 1)), None)


def _sole_aggregate(st: _Structure, block: tuple[int, ...]) -> int | None:
    """The aggregate of `block` if it is the block's only one, else None."""
    ks = {k for i in block for k in st.agg_at[i - 1]}
    return ks.pop() if len(ks) == 1 else None


def _least_split(st: _Structure, a: ExponentVector, N: int, r: int) -> int:
    """Least degree >= r at which the interior point a of N*P splits."""
    while not _split_exists(st, a, N, r, 1):
        r += 1
    return r


# --- one test per level, and the degree-1 count, by block -----------------

def _rank_fails(st: _Structure, block: tuple[int, ...], N: int, budget: int) -> bool:
    """Is R_N(X) > R_{N-1}(X) + f(X) for some nonempty X within `block`?
    The three greedies of the module docstring, over the subsets depth
    first; more than `budget` subsets raise BudgetExceededError.  (N-1)*P
    has an interior point."""
    rows = ((N, 1), (N - 1, 1), (1, 0))     # (level, start): R_N, R_{N-1} and f
    visited = 0

    def extend(start: int, sums) -> bool:
        nonlocal visited
        for j in range(start, len(block)):
            visited += 1
            if visited > budget:
                raise BudgetExceededError(f"rank test exceeded {budget} subsets",
                                          cap="budget", limit=budget)
            u, ks = st.u[block[j] - 1], st.agg_at[block[j] - 1]
            # each gain: the least slack of the rows M t - s through the member
            gains = [min([M * st.aggs[k][1] - s - used[k] for k in ks]
                         + ([] if u is None else [M * u - 2 * s]))
                     for (M, s), used in zip(rows, sums)]
            if gains[0] > gains[1] + gains[2]:
                return True
            nxt = [used[:] for used in sums]
            for g, used in zip(gains, nxt):
                for k in ks:
                    used[k] += g
            if extend(j + 1, nxt):
                return True
        return False

    return extend(0, [[s * len(A) for A, _t in st.aggs] for _M, s in rows])


def _block_splits(Q: HPolytope, N: int, budget: int) -> int:
    """The interior points of N*Q that split at r = 1, for Q one block with
    an interior point: a lone coordinate always splits, and any other
    block is walked."""
    st = _structure(Q)
    if not st.aggs:
        return count_lattice_points(Q, N, "interior", budget=budget)
    return sum(1 for a in iter_lattice_points(Q, N, "interior", budget=budget)
               if _split_exists(st, a, N, 1, 1))


def _is_degree(P: HPolytope, N: int, budget: int) -> bool:
    """Has some interior point of N*P reduced degree N?  Decided block by
    block, as the module docstring says: a block of one aggregate asks the
    knapsack, whose first condition met stops it, and any other block the
    rank test."""
    if not _interior_at(P, N):
        return False
    if not _interior_at(P, N - 1):
        return True
    st = _structure(P)
    for block in (b for b in st.blocks if len(b) > 1):  # a lone coordinate splits
        k = _sole_aggregate(st, block)
        if (any(True for _ in _met_conditions(st, *st.aggs[k], N, N - 1)) if k is not None
                else _rank_fails(st, block, N, budget)):
            return True
    return False


def _degree_one_count(P: HPolytope, N: int, budget: int) -> int:
    """The interior points of N*P that split at r = 1: the product over the
    blocks of their counts, each distinct block walked once, and 0 when P
    has no interior point."""
    if not _interior_at(P, 1):
        return 0
    blocks = [_restrict(P, members) for members in _structure(P).blocks]
    counts = {Q: _block_splits(Q, N, budget) for Q in set(blocks)}
    return prod(counts[Q] for Q in blocks)


class _DegreeTable:
    """The number of scanned points of reduced degree >= 2, holding no
    point, as `LevelnessReport` describes it.  The table of a relabelling
    reads its length off `counted`, the table of its class's first hull."""

    def __init__(self, P: HPolytope, levels, budget: int, counted=None):
        self._P, self._levels, self._budget = P, levels, budget
        self._counted = counted
        self._len = None

    def __len__(self) -> int:
        if self._len is None:
            P, budget = self._P, self._budget
            self._len = len(self._counted) if self._counted is not None else sum(
                count_lattice_points(P, N, "interior", budget=budget)
                - _degree_one_count(P, N, budget) for N in self._levels)
        return self._len

    def __eq__(self, other):
        if not isinstance(other, _DegreeTable):
            return NotImplemented
        return (self._P, self._levels) == (other._P, other._levels)

    def __hash__(self):
        return hash((self._P, self._levels))


@dataclass(frozen=True)
class LevelnessReport:
    """Verdicts and witnesses for one polytope.

    `pseudo_gorenstein` and `reflexive_up_to_translation` (None unless
    pseudo-Gorenstein*) are read off the gaps (the `lattice` docstring).
    Every levelness answer is read off one set, the reduced degrees >= 2,
    the interval of levels max(2, codegree)..int_star_degree that the scan
    finds (the module docstring).  P is level* when it has an interior
    point and the set is empty, that is when level 2 holds no degree.
    Otherwise `failure_witness` carries (level, point, explanation) for
    the lex-least point of level 2 with no degree-1 split; an empty
    interior fails without one.  The int* degree is the set's maximum, or
    1 when it is empty, and `level_star` reads `level` and the witness.
    `conjecture_spectrum_holds`, whether every i with 2 <= i < int* degree
    is a degree, is by the theorem true exactly when the codegree is at
    most 2: always with an interior point, and otherwise when 2*P has one.
    `scan_bound` is the last level tested, the first above the set, so
    it equals `int_star_degree + 1` on every report: an empty set means
    the scan started at level 2, as a codegree c >= 3 makes c a degree.
    `reduced_degree_table` is the number of points of reduced degree at
    least 2 at the levels max(2, codegree)..scan_bound, given by `len()`;
    degree-1 points are ubiquitous and left out.  It holds no point: its
    length is counted by a walk of each block on the first `len()` and
    kept (so a `budget` below the nodes of a walk raises there), and
    `reduced_degree` gives the degree of one point.  `scan_bound` and the
    table are kept for the benchmark in `perfbench`, which reads them.
    Two tables are equal, and hash alike, when their polytopes and levels
    are, so a report can be a set member or a dict key.
    """

    n: int
    interior_count_1: int
    pseudo_gorenstein: bool
    level: bool
    reflexive_up_to_translation: bool | None
    int_star_degree: int
    failure_witness: tuple[int, ExponentVector, str] | None
    reduced_degree_table: _DegreeTable
    conjecture_spectrum_holds: bool
    scan_bound: int


def analyze_polytope(P: HPolytope, budget: int = DEFAULT_NODE_BUDGET) -> LevelnessReport:
    """The `LevelnessReport` of P.  Answers are memoized by (P, budget)
    (see `bounded._MEMO_SIZE`), however the call spells them, so calls
    that ask for one report share one frozen report, and shared by the
    relabellings of one basis set (the `polymatroid` docstring); a raised
    error is not kept.  `budget` is an integer >= 1; it bounds the nodes
    or states of each count and walk and the subsets of each block's rank
    test, and never truncates an answer."""
    return _report(P, _cap(budget, "budget"))


@lru_cache(maxsize=_MEMO_SIZE)
def _report(P: HPolytope, budget: int) -> LevelnessReport:
    if P.first is not None:     # a relabelling: its class's report, on its labels
        rep = _report(P.first, budget)
        witness = rep.failure_witness
        if witness is not None:     # the same level for every relabelling
            N, _point, why = witness
            witness = (N, _witness(P, N, budget), why)
        table = rep.reduced_degree_table
        return replace(rep, failure_witness=witness,
                       reduced_degree_table=_DegreeTable(P, table._levels, budget, table))
    pg = pseudo_gorenstein_star(P)
    # the degrees >= 2 are the levels max(2, codegree)..d (the module docstring)
    start = next(N for N in count(2) if _interior_at(P, N))
    top = start
    while _is_degree(P, top, budget):
        if top > P.n + 1:
            raise RuntimeError(f"level {top} holds a reduced degree above n + 1 (internal error)")
        top += 1
    degrees = range(start, top)
    interior = _interior_at(P, 1)
    witness = None
    if degrees and interior:
        witness = (start, _witness(P, start, budget),
                   f"no interior summand of the base polytope splits off at level {start}")
    return LevelnessReport(
        n=P.n,
        interior_count_1=count_lattice_points(P, 1, "interior", budget=budget),
        pseudo_gorenstein=pg,
        level=not degrees and interior,
        reflexive_up_to_translation=_unit_gaps(P) if pg else None,
        int_star_degree=max(degrees, default=1),
        failure_witness=witness,
        reduced_degree_table=_DegreeTable(P, range(start, top + 1), budget),
        conjecture_spectrum_holds=start == 2,
        scan_bound=top,
    )


def level_star(P: HPolytope, budget: int = DEFAULT_NODE_BUDGET):
    """Decide level*; returns (verdict, witness) with the lex-least failing
    (N, point) on the negative side, or (False, None) for empty interior:
    the report's `level` and the first two fields of its `failure_witness`."""
    rep = analyze_polytope(P, budget)
    return rep.level, rep.failure_witness and rep.failure_witness[:2]


def int_star_degree(P: HPolytope, budget: int = DEFAULT_NODE_BUDGET) -> int:
    """Largest reduced degree over all dilates: the report's
    `int_star_degree`."""
    return analyze_polytope(P, budget).int_star_degree


def conjecture_spectrum(P: HPolytope, budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """With d the int* degree: is every i with 2 <= i < d a reduced degree?
    The report's `conjecture_spectrum_holds`."""
    return analyze_polytope(P, budget).conjecture_spectrum_holds
