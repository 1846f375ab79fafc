"""Closed-form Wiener values and bounds, all in exact arithmetic.

Formulas with fractional intermediate terms are evaluated as scaled integers
(times 8 or 24) and the final division is asserted exact, so a wrong branch
or a transcription slip fails loudly instead of rounding silently.
"""
from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from fractions import Fraction


def _exact_div(value: int, by: int) -> int:
    q, r = divmod(value, by)
    if r:
        raise AssertionError(f"{value} not divisible by {by}")
    return q


def wiener_cycle(n: int) -> int:
    """W of the n-cycle: n^3/8 for even n, (n^3 - n)/8 for odd n (n >= 3)."""
    if n < 3:
        raise ValueError("cycle formula needs n >= 3")
    return _exact_div(n**3 if n % 2 == 0 else n**3 - n, 8)


def wiener_vertex_glued_triangle(n: int) -> int:
    """W of a triangle and an (n-2)-cycle sharing one vertex (n >= 5).

    Even n: (n^3 - 2n^2 + 12n - 16)/8; odd n: (n^3 - 2n^2 + 11n - 18)/8.
    """
    if n < 5:
        raise ValueError("glued-triangle formula needs n >= 5")
    if n % 2 == 0:
        num = n**3 - 2 * n**2 + 12 * n - 16
    else:
        num = n**3 - 2 * n**2 + 11 * n - 18
    return _exact_div(num, 8)


def wiener_edge_glued(n: int, a: int) -> int:
    """W of cycles of lengths a and n+2-a sharing one edge (4 <= a <= n-2).

    One base polynomial plus a parity-dependent correction, all over 8.
    """
    if not 4 <= a <= n - 2:
        raise ValueError(f"need 4 <= a <= n-2, got a={a}, n={n}")
    base = a * (n - 2) * (a - n - 2) + n * (n**2 + 2 * n - 4)
    if n % 2 == 0:
        delta = 0 if a % 2 == 0 else -3 * n + 6
    else:
        delta = -n - a + 2 if a % 2 == 0 else a - 2 * n
    return _exact_div(base + delta, 8)


def max_wiener_connected(n: int) -> int:
    """Largest W over connected graphs of order n: C(n+1, 3), the path."""
    if n < 1:
        raise ValueError("need n >= 1")
    return comb(n + 1, 3)


def connectivity_bounds(n: int) -> dict:
    """Sharp distance bounds under connectivity hypotheses (n >= 3).

    max_wiener_two_edge_connected: W bound attained exactly by the cycle;
    max_sigma_two_connected: per-vertex total-distance bound floor(n^2/4) for
    2-connected graphs (the cycle attains it);
    max_sigma_two_edge_connected: per-vertex bound floor(n(n-1)/3) for
    2-edge-connected graphs.
    """
    if n < 3:
        raise ValueError("bounds need n >= 3")
    return {
        "max_wiener_two_edge_connected": wiener_cycle(n),
        "max_sigma_two_connected": n**2 // 4,
        "max_sigma_two_edge_connected": n * (n - 1) // 3,
    }


def min_wiener_eulerian(n: int) -> int:
    """Smallest W over connected even-degree graphs of order n (n >= 3).

    C(n,2) for odd n (complete graph); C(n,2) + n/2 for even n (complete
    graph minus a perfect matching).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    return comb(n, 2) + (0 if n % 2 else n // 2)


def wiener_lower_bound(n: int, m: int) -> int:
    """W >= 2*C(n,2) - m for connected graphs; equality iff diameter <= 2."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= m <= comb(n, 2):
        raise ValueError(f"edge count {m} out of range for n={n}")
    return n * (n - 1) - m


def min_size_diameter_two(n: int) -> int:
    """Minimum size of a diameter-2 connected even-degree graph (n >= 9).

    3(n-1)/2 for odd n, 2n-5 for even n; sharp from n = 9 on.
    """
    if n < 9:
        raise ValueError("sharp only for n >= 9")
    return _exact_div(3 * (n - 1), 2) if n % 2 else 2 * n - 5


def second_place_gap_numerator(n: int, a: int) -> int:
    """24 times the second-place gap polynomial.

    At a = 3 this reduces to 2n^2 - 37n + 99.
    """
    if n < 26:
        raise ValueError("gap polynomial is asserted for n >= 26 only")
    if not 3 <= a <= (n + 1) // 2:
        raise ValueError(f"need 3 <= a <= (n+1)/2, got a={a}, n={n}")
    return (
        (a - 1) * n**2
        + (a**2 - 18 * a + 8) * n
        - 2 * a**3
        + 13 * a**2
        + 25 * a
        - 39
    )


def second_place_gap(n: int, a: int) -> Fraction:
    """Exact value of the second-place gap polynomial (numerator over 24).

    Positive and nondecreasing in a throughout its domain; its positivity is
    the arithmetic heart of the second-place characterization at large n.
    """
    from fractions import Fraction  # not at module level: it costs every start-up
    return Fraction(second_place_gap_numerator(n, a), 24)


#: registry for the command line: name -> (parameter names, function)
FORMULAS: dict[str, tuple[tuple[str, ...], Callable[..., object]]] = {
    "wiener-cycle": (("n",), wiener_cycle),
    "wiener-vertex-glued-triangle": (("n",), wiener_vertex_glued_triangle),
    "wiener-edge-glued": (("n", "a"), wiener_edge_glued),
    "max-wiener-connected": (("n",), max_wiener_connected),
    "connectivity-bounds": (("n",), connectivity_bounds),
    "min-wiener-eulerian": (("n",), min_wiener_eulerian),
    "wiener-lower-bound": (("n", "m"), wiener_lower_bound),
    "min-size-diameter-two": (("n",), min_size_diameter_two),
    # the gap keeps its /24 denominator visible rather than auto-reducing
    "second-place-gap": (("n", "a"),
                         lambda n, a: f"{second_place_gap_numerator(n, a)}/24"),
}
