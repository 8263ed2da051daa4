"""A catalogue of hard graph hulls: each sets the cost wall of one layer.

Every entry gives the graph and bound vector of a hull, the layer that
its cost stresses, its recorded answers and `budget`: the work budget at
which `test_catalogue` analyses it, or None while it does not fit a
tier-1 run.  A work budget counts nodes and states, not seconds, so a hull
that becomes slow again fails by its budget whatever the host.  An entry
gets a budget in the change that makes it fit; until then it is listed
and not run, so no test fails by design.

Answers are those of single runs at the default budget; the witnesses of
n = 8, 12 and 14 are the same when the whole hull is walked for them.  A
key is left out where no run has finished.  The keys are "bases" (the
number of bases), "interior" (interior points of P), "level",
"int_star_degree" and "witness" ((level, point), or None).  Costs in the
comments are single runs on a shared 2-vCPU Xeon host, for sizing only.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Hull:
    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    c: tuple[int, ...]
    stresses: str
    budget: int | None
    answers: dict = field(default_factory=dict)


def _star(leaves: int) -> tuple[tuple[int, int], ...]:
    return tuple((1, j) for j in range(2, leaves + 2))


CATALOGUE = (
    # the report took 15.8-19.0 s, nearly all in walks of levels 3-7 where
    # every point splits
    Hull("n8-crossing", 8,
         ((1, 8), (2, 4), (2, 8), (3, 5), (3, 7), (3, 8), (4, 6), (4, 7), (4, 8)),
         (3, 2, 2, 3, 2, 3, 2, 2),
         "levelness._is_degree: the walk of a crossing block", None,
         {"bases": 35, "interior": 4, "level": False, "int_star_degree": 2,
          "witness": (2, (3, 3, 1, 1, 3, 1, 3, 1))}),
    # over 150 s
    Hull("n9-crossing", 9,
         ((1, 4), (2, 6), (2, 7), (2, 8), (2, 9), (3, 7), (3, 9), (4, 5), (4, 6), (5, 6),
          (5, 7), (7, 8), (7, 9)),
         (1, 1, 2, 3, 3, 2, 1, 2, 3),
         "levelness._is_degree: the walk of a crossing block", None),
    # the report took 62-79 s
    Hull("n10-crossing", 10,
         ((1, 2), (1, 5), (2, 6), (2, 7), (2, 8), (3, 4), (3, 8), (3, 10), (4, 5), (5, 6),
          (6, 10), (8, 9)),
         (2, 2, 3, 3, 1, 1, 1, 3, 1, 2),
         "levelness._is_degree: the walk of a crossing block", None,
         {"bases": 23, "interior": 0, "level": False, "int_star_degree": 3,
          "witness": None}),
    # report 0.6 s; it needs 30,892 states
    Hull("n11-nested", 11,
         ((1, 2), (1, 6), (1, 9), (2, 4), (2, 6), (2, 7), (2, 11), (3, 5), (3, 7), (3, 11),
          (4, 11), (5, 9), (5, 11), (6, 8), (6, 10), (7, 9)),
         (2, 2, 3, 3, 2, 1, 2, 1, 2, 1, 3),
         "levelness._is_degree: the laminar dynamic program", 10**5,
         {"bases": 17, "interior": 0, "level": False, "int_star_degree": 8,
          "witness": None}),
    # the witness walk of the whole hull took 8.5-9.6 s and over 10^5
    # nodes; the walk of its failing block takes 0.01 s, and the report
    # needs 8,346 nodes and states
    Hull("n12-laminar", 12,
         ((1, 3), (1, 8), (1, 9), (2, 9), (3, 11), (3, 12), (4, 7), (5, 8), (5, 9), (5, 12),
          (6, 9), (7, 9), (7, 11), (8, 10), (8, 12), (11, 12)),
         (2, 3, 3, 2, 2, 3, 2, 2, 3, 2, 3, 2),
         "levelness._witness: the walk of a nested block", 10**4,
         {"bases": 77, "interior": 8, "level": False, "int_star_degree": 3,
          "witness": (2, (2, 1, 1, 3, 3, 4, 1, 1, 1, 3, 5, 1))}),
    # bases and facets 0.9 s (a layer of 182,235 states); the report took
    # 6.4 s with the whole-hull witness walk and takes 0.6 s, needing
    # 25,954 nodes and states
    Hull("n14-laminar", 14,
         ((1, 3), (1, 9), (2, 8), (2, 11), (3, 7), (3, 12), (4, 5), (4, 6), (4, 10), (5, 6),
          (5, 8), (5, 12), (6, 7), (6, 10), (6, 12), (6, 13), (7, 8), (7, 9), (7, 13), (8, 14),
          (9, 11), (12, 13), (12, 14)),
         (3, 2, 2, 2, 3, 2, 2, 2, 2, 3, 2, 3, 3, 3),
         "levelness._witness and bounded.enumerate_bases", 10**5,
         {"bases": 22, "interior": 64, "level": False, "int_star_degree": 3,
          "witness": (2, (1, 1, 1, 1, 5, 1, 1, 1, 1, 5, 1, 1, 5, 5))}),
    # bases 14.1-14.4 s, the report under 0.01 s: one aggregate over all
    # 16 vertices, and degrees 2..15 = n - 1
    Hull("n16-disjoint", 16,
         ((1, 3), (1, 4), (1, 5), (1, 8), (1, 9), (1, 14), (2, 8), (2, 12), (2, 13), (2, 14),
          (2, 15), (2, 16), (3, 5), (3, 15), (3, 16), (4, 5), (4, 6), (4, 11), (4, 15),
          (5, 11), (5, 15), (7, 11), (7, 13), (7, 15), (8, 9), (8, 15), (9, 11), (9, 14),
          (10, 13), (10, 14), (11, 13), (12, 14), (15, 16)),
         (2, 3, 3, 3, 3, 2, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3),
         "bounded.enumerate_bases", None,
         {"bases": 16, "interior": 512, "level": False, "int_star_degree": 15,
          "witness": (2, (3, 5, 5, 5, 5, 3, 3, 5, 3, 5, 3, 5, 3, 5, 3, 5))}),
    # `facets` took 31 s; `enumerate_bases` 0.7-0.9 s
    Hull("star10", 11, _star(10), (15,) + (3,) * 10,
         "polymatroid.facets: the rank table over the bases", None,
         {"bases": 116_304}),
    # `facets` had not finished after about 9 minutes
    Hull("star12", 13, _star(12), (18,) + (3,) * 12,
         "polymatroid.facets: the rank table over the bases", None,
         {"bases": 1_703_636}),
)
