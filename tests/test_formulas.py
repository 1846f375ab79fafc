"""Closed forms against the BFS oracle, plus domain guards."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from wienerlab.families import (
    cocktail_party,
    complete,
    cycle,
    edge_glued_cycles,
    path,
    vertex_glued_cycles,
)
from wienerlab.formulas import (
    connectivity_bounds,
    max_wiener_connected,
    min_size_diameter_two,
    min_wiener_eulerian,
    second_place_gap,
    second_place_gap_numerator,
    wiener_cycle,
    wiener_edge_glued,
    wiener_lower_bound,
    wiener_vertex_glued_triangle,
)
from wienerlab.graphs import wiener


def test_cycle_formula_small_values():
    assert [wiener_cycle(n) for n in range(3, 9)] == [3, 8, 15, 27, 42, 64]


@given(st.integers(3, 200))
def test_cycle_formula_parity_cases(n):
    if n % 2 == 0:
        assert 8 * wiener_cycle(n) == n**3
    else:
        assert 8 * wiener_cycle(n) == n**3 - n


@pytest.mark.parametrize("n", range(3, 41))
def test_cycle_formula_matches_bfs(n):
    assert wiener_cycle(n) == wiener(cycle(n))


@pytest.mark.parametrize("n", range(5, 41))
def test_glued_triangle_formula_matches_bfs(n):
    assert wiener_vertex_glued_triangle(n) == wiener(vertex_glued_cycles(n, 3))


def test_glued_triangle_known_values():
    assert wiener_vertex_glued_triangle(5) == 14
    assert wiener_vertex_glued_triangle(8) == 58
    assert wiener_vertex_glued_triangle(26) == 2065


@pytest.mark.parametrize("n", range(6, 31))
def test_edge_glued_formula_matches_bfs(n):
    for a in range(4, n - 1):
        assert wiener_edge_glued(n, a) == wiener(edge_glued_cycles(n, a))


def test_vertex_glued_union_formula_matches_bfs_below_order_120(vertex_glued_union):
    """The one-vertex union formula (conftest) equals BFS on all 6,669
    graphs with 6 <= n < 120 and 3 <= a <= n - 2.  At a = 3 it is the
    glued-triangle formula."""
    checked = 0
    for n in range(6, 120):
        for a in range(3, n - 1):
            w = vertex_glued_union(n, a)
            assert wiener(vertex_glued_cycles(n, a)) == w, (n, a)
            if a == 3:
                assert w == wiener_vertex_glued_triangle(n)
            checked += 1
    assert checked == 6669


# 2 (W(n, a) - W(n, a + 1)) of the union formula on the class of
# (n mod 2, a mod 2), with n = 2p + i
L2_STEP_FACTORS = {
    (0, 0): lambda p, a: (p - 1) * (p - a),
    (0, 1): lambda p, a: (p - 2) * (p - a),
    (1, 0): lambda p, a: p * (p + 1 - a) + a,
    (1, 1): lambda p, a: (p - 1) * (p - 1 - a) - 2,
}


@pytest.mark.parametrize("i,j", sorted(L2_STEP_FACTORS))
def test_l2_step_factors_on_each_parity_class_below_order_600(i, j, vertex_glued_union):
    """The factoring of 2 (W(n, a) - W(n, a + 1)) on the class (i, j) holds
    for every 6 <= n < 600 and 3 <= a < a + 1 <= n - 2.  On a class both
    sides are polynomials of degree at most 3 in each of p and q, a = 2q + j
    (the parity of b = n + 1 - a is fixed too), and these orders hold a
    4 x 4 grid in (p, q), so the identity holds for every order.  What is
    proved is a fact about the formula; which comparisons of _chain_order
    it decides is not checked here."""
    checked = 0
    for n in range(6 + i, 600, 2):
        for a in range(3 + (j != 1), n - 2, 2):
            step = vertex_glued_union(n, a) - vertex_glued_union(n, a + 1)
            assert 2 * step == L2_STEP_FACTORS[i, j](n // 2, a), (n, a)
            checked += 1
    assert checked == (43_956 if (i, j) == (0, 0) else 44_253)


def test_edge_glued_symmetry_in_the_formula():
    for n in range(6, 60):
        for a in range(4, n - 1):
            assert wiener_edge_glued(n, a) == wiener_edge_glued(n, n + 2 - a)


def test_squeeze_between_parity_forms():
    """The glued-triangle value sits between the odd and even cubic forms."""
    for n in range(5, 301):
        w = wiener_vertex_glued_triangle(n)
        lower = n**3 - 2 * n**2 + 11 * n - 18
        upper = n**3 - 2 * n**2 + 12 * n - 16
        assert lower <= 8 * w <= upper


@pytest.mark.parametrize("n", range(1, 31))
def test_path_attains_connected_maximum(n):
    assert max_wiener_connected(n) == comb(n + 1, 3)
    if n >= 2:
        assert max_wiener_connected(n) == wiener(path(n))


def test_connectivity_bounds_values():
    assert connectivity_bounds(6) == {
        "max_wiener_two_edge_connected": 27,
        "max_sigma_two_connected": 9,
        "max_sigma_two_edge_connected": 10,
    }
    b = connectivity_bounds(9)
    assert b["max_wiener_two_edge_connected"] == wiener_cycle(9) == 90
    assert b["max_sigma_two_connected"] == 81 // 4
    assert b["max_sigma_two_edge_connected"] == 9 * 8 // 3


@pytest.mark.parametrize("n", range(3, 25))
def test_min_wiener_eulerian_matches_extremal_graphs(n):
    if n % 2:
        assert min_wiener_eulerian(n) == comb(n, 2) == wiener(complete(n))
    else:
        assert min_wiener_eulerian(n) == comb(n, 2) + n // 2 == wiener(cocktail_party(n))


def test_wiener_lower_bound():
    assert wiener_lower_bound(9, 12) == 9 * 8 - 12 == 60
    assert wiener_lower_bound(5, 10) == 10  # complete graph floor
    with pytest.raises(ValueError):
        wiener_lower_bound(5, 11)
    with pytest.raises(ValueError):
        wiener_lower_bound(5, -1)


def test_min_size_diameter_two_parity():
    assert min_size_diameter_two(9) == 12
    assert min_size_diameter_two(10) == 15
    assert min_size_diameter_two(11) == 15
    assert min_size_diameter_two(12) == 19
    with pytest.raises(ValueError):
        min_size_diameter_two(8)


def test_second_place_gap_values():
    assert second_place_gap_numerator(26, 3) == 489
    assert second_place_gap(26, 3) == Fraction(489, 24)
    for n in (26, 40, 77):
        for a in range(3, (n + 1) // 2 + 1):
            assert second_place_gap(n, a) > 0


def test_second_place_gap_quadratic_identity():
    for n in range(26, 126):
        assert second_place_gap_numerator(n, 3) == 2 * n * n - 37 * n + 99


def test_second_place_gap_domain():
    with pytest.raises(ValueError):
        second_place_gap_numerator(25, 3)
    with pytest.raises(ValueError):
        second_place_gap_numerator(26, 2)
    with pytest.raises(ValueError):
        second_place_gap_numerator(26, 14)  # above (n+1)/2


def test_formula_domain_guards():
    with pytest.raises(ValueError):
        wiener_cycle(2)
    with pytest.raises(ValueError):
        wiener_vertex_glued_triangle(4)
    with pytest.raises(ValueError):
        wiener_edge_glued(6, 3)
    with pytest.raises(ValueError):
        wiener_edge_glued(6, 5)
    with pytest.raises(ValueError):
        min_wiener_eulerian(2)
    with pytest.raises(ValueError):
        connectivity_bounds(2)


# ---------------------------------------------------------------------------
# L3 and GAP at every order, given the closed forms
#
# L3 and GAP sweep finite ranges of n.  The tests below prove, for every
# order, the polynomial facts the two claims rest on: 8 W(C_{n,3}) and
# 8 W_edge(n, a) are polynomials in (n, a) on each parity class of (n, a),
# of degree at most 3 in each variable, and 24 gap is one polynomial of
# degree 2 in n and 3 in a.  A polynomial of degree at most 3 in each of two
# variables that vanishes on a 4 x 4 grid vanishes everywhere, so an
# identity checked on such a grid holds for every (n, a).  What is proved is
# a fact about the formulas: that they give the true Wiener indices is
# checked against BFS only up to n = 30 (edge-glued) and n = 40 (glued
# triangle).

GRID = range(4)

# D = 8 (W(C_{n,3}) - W_edge(n, a)) on the class of (n mod 2, a mod 2)
L3_FACTORS = {
    (0, 0): lambda n, a: (a - 4) * (n - 2) * (n - 2 - a),
    (0, 1): lambda n, a: (n - 2) * (a * (n + 2 - a) - 4 * n + 11),
    (1, 0): lambda n, a: (a - 4) * (n * n - 4 * n + 5 - a * (n - 2)),
    (1, 1): lambda n, a: (n - 2 - a) * (a * (n - 2) - 4 * n + 9),
}


def l3_difference(n, a):
    return 8 * wiener_vertex_glued_triangle(n) - 8 * wiener_edge_glued(n, a)


@pytest.mark.parametrize("i,j", sorted(L3_FACTORS))
def test_l3_difference_factors_on_each_parity_class(i, j):
    """The factorization of D holds for every (n, a) of its class: checked
    at n = 2p + i, a = 2q + j on a 4 x 4 grid in (p, q) inside the domain
    4 <= a <= n - 2."""
    for p in GRID:
        for q in GRID:
            n, a = 2 * (p + 8) + i, 2 * (q + 2) + j
            assert l3_difference(n, a) == L3_FACTORS[i, j](n, a)


def newton_coefficients(values):
    """c[k] = the k-th forward difference at 0 of four values at 0..3, so
    that the cubic through them is sum(c[k] * C(x, k))."""
    c = list(values)
    for k in range(1, 4):
        for r in range(3, k - 1, -1):
            c[r] -= c[r - 1]
    return c


@pytest.mark.parametrize("i,j", sorted(L3_FACTORS))
def test_l3_cap_holds_with_equality_only_at_the_extreme_splits(i, j):
    """D >= 0 for every n and 4 <= a <= n - 2, and D = 0 exactly at a = 4
    and a = n - 2: L3 for every order, given the closed forms.

    The class (i, j) of the domain is the image of x, y >= 0 under
    a = 4 + j + 2x and n - a = 2 + [i != j] + 2y.  In these coordinates D is
    still of degree at most 3 in each variable, so it equals
    sum c[k][l] C(x, k) C(y, l) with integer Newton coefficients taken at
    x, y in 0..3.  C(x, k) >= 0, and it is positive exactly when x >= k.
    So D >= 0 when no coefficient is negative, and D(x, y) = 0 exactly when
    every positive c[k][l] has k > x or l > y, which for x or y above 3 is
    the answer at 3."""
    def d(x, y):
        a = 4 + j + 2 * x
        return l3_difference(a + 2 + (i != j) + 2 * y, a)

    by_y = [newton_coefficients([d(x, y) for y in GRID]) for x in GRID]
    c = [newton_coefficients([by_y[x][l] for x in GRID]) for l in GRID]  # c[l][k]
    assert min(min(row) for row in c) >= 0
    for x in GRID:
        for y in GRID:
            a = 4 + j + 2 * x
            n = a + 2 + (i != j) + 2 * y
            vanishes = not any(c[l][k] for k in range(x + 1) for l in range(y + 1))
            assert vanishes == (a in (4, n - 2)) == (d(x, y) == 0)


def gap_expansion(t, u):
    """24 gap at a = 3 + t, n = 26 + u."""
    return (-2 * t**3 + t * t * u + 21 * t * t + t * u * u + 40 * t * u
            + 413 * t + 2 * u * u + 67 * u + 489)


def test_gap_numerator_is_positive_at_every_order():
    """24 gap > 0 for every n >= 26 and 3 <= a <= (n + 1) / 2.

    With t = a - 3 >= 0 and u = n - 26 >= 0, 24 gap equals
    t^2 (u + 21 - 2t) + t u^2 + 40 t u + 413 t + 2 u^2 + 67 u + 489.
    The bound a <= (n + 1) / 2 is 2t <= u + 21, so the first term is >= 0,
    every other term is >= 0, and 489 > 0."""
    for t in GRID:
        for u in GRID:
            assert second_place_gap_numerator(26 + u, 3 + t) == gap_expansion(t, u)
            assert gap_expansion(t, u) == (
                t * t * (u + 21 - 2 * t)
                + t * u * u + 40 * t * u + 413 * t + 2 * u * u + 67 * u + 489)
    for n in range(26, 60):
        for a in range(3, n):
            assert (2 * (a - 3) <= (n - 26) + 21) == (a <= (n + 1) // 2)


def test_gap_numerator_increases_in_the_split_at_every_order():
    """N(n, a + 1) - N(n, a) = 2a^2 - 8a + 20 + u (6a - 15) + u^2 with
    u = n - 2a - 1, for every n >= 26 and 3 <= a < a + 1 <= (n + 1) / 2.

    Both sides have degree at most 2 in each of a and u, so the grid
    a in 3..6, u in 19..22 proves the identity.  Then u >= 0 on the domain,
    2a^2 - 8a + 20 = 2 (a - 2)^2 + 12 > 0 and 6a - 15 > 0 for a >= 3, so
    the step is positive and the gap strictly increasing in a."""
    for a in range(3, 7):
        for u in range(19, 23):
            n = 2 * a + 1 + u
            step = second_place_gap_numerator(n, a + 1) - second_place_gap_numerator(n, a)
            assert step == 2 * a * a - 8 * a + 20 + u * (6 * a - 15) + u * u
            assert 2 * a * a - 8 * a + 20 == 2 * (a - 2) ** 2 + 12
    for n in range(26, 60):
        for a in range(3, (n + 1) // 2):
            assert n - 2 * a - 1 >= 0
