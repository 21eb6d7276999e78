"""Published radio numbers as outside oracles for the exact search.

The minimum label is 0, as everywhere in radiomesh. Paths and cycles
are from Liu & Zhu, "Multilevel distance labelings for paths and
cycles", SIAM J. Discrete Math. 19 (2005). In a star K_{1,s} the s
leaves need distinct labels and the hub a gap of 2 to each, so the hub
goes at 0 and the leaves at 2..s + 1: rn(K_{1,s}) = s + 1 for s >= 2.

Two more families follow from the definition alone.

- rn(K_n) = n - 1 for n >= 2: every pair is at distance 1 = diam, so
  the labels need only be distinct, and 0..n - 1 are.
- rn(K_{a,b}) = a + b for 1 <= a <= b and a + b >= 3: here diam = 2,
  so two vertices on the same side need a gap of 1 and two on
  opposite sides a gap of 2. In label order the sides switch at least
  once, so the span is at least (a + b - 1) + 1; labels 0..a - 1 on
  one side and a + 1..a + b on the other reach it.

Their symmetry groups, 12! for K_12 and 2 (6!)^2 for K_{6,6}, lie far
above the search's cap on the automorphisms it keys its table by, so
these check the capped table against exact values at 12 vertices.
P_10, C_10..C_13, K_10..K_12 and the K_{a,b} with a + b >= 10 lie
above the 9-vertex ceiling of :func:`~radiomesh.permutation_oracle`,
so there nothing else in the repo checks :func:`~radiomesh.exact_rn`.
"""
import itertools

import pytest

from radiomesh import (
    Graph,
    RnStatus,
    all_pairs_distances,
    build_path,
    build_star,
    exact_rn,
    validate,
)


def path_rn(n):
    k, odd = divmod(n, 2)
    return 2 * k * k + 2 if odd else 2 * k * k - 2 * k + 1


def cycle_rn(n):
    k, r = divmod(n, 4)
    phi = k + 1 if r == 1 else k + 2
    return phi * (n - 2) // 2 + 1 if n % 2 == 0 else phi * (n - 1) // 2


def build_cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def build_complete(n):
    return Graph(n, itertools.combinations(range(n), 2))


def build_complete_bipartite(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


CASES = (
    [pytest.param(build_path(n), path_rn(n), id=f"P{n}") for n in range(4, 11)]
    + [pytest.param(build_cycle(n), cycle_rn(n), id=f"C{n}") for n in range(4, 14)]
    + [pytest.param(build_star(s), s + 1, id=f"K1,{s}") for s in range(2, 9)]
    + [pytest.param(build_complete(n), n - 1, id=f"K{n}") for n in range(2, 13)]
    + [
        pytest.param(build_complete_bipartite(a, b), a + b, id=f"K_{{{a},{b}}}")
        for a in range(1, 7)
        for b in range(a, 7)
        if a + b >= 3
    ]
)


@pytest.mark.parametrize("g, published", CASES)
def test_exact_rn_equals_the_published_radio_number(g, published):
    result = exact_rn(g)
    assert (result.value, result.status) == (published, RnStatus.EXACT)
    assert result.witness.span == published
    assert validate(g, all_pairs_distances(g), result.witness).valid
