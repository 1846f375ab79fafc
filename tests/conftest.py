"""Shared fixtures: warmed graph censuses and their build timings, a
timeout for tests that could hang, the automorphism group order oracle and
the one-vertex union formula for W of two glued cycles."""
import signal
import time

import pytest

from wienerlab.canon import canon_rows
from wienerlab.formulas import wiener_cycle
from wienerlab.verify import eulerian_census

# wall-clock seconds for the first (cold) build of each census, keyed by name
CENSUS_TIMINGS: dict[str, float] = {}


@pytest.fixture(scope="session")
def census9():
    t0 = time.perf_counter()
    rows = eulerian_census(9, jobs=8)
    CENSUS_TIMINGS.setdefault("census9", time.perf_counter() - t0)
    return rows


@pytest.fixture(scope="session")
def census10():
    t0 = time.perf_counter()
    rows = eulerian_census(10, jobs=8)
    CENSUS_TIMINGS.setdefault("census10", time.perf_counter() - t0)
    return rows


@pytest.fixture(scope="session")
def census_timings():
    return CENSUS_TIMINGS


@pytest.fixture(scope="session")
def group_order():
    """Order of a graph's automorphism group, by closing the generators that
    canon_rows returns under composition; for small graphs."""
    def order(g):
        gens = canon_rows(g.n, g.rows)[1]
        elems = frontier = {tuple(range(g.n))}
        while frontier:
            frontier = {tuple(e[x] for x in s) for e in frontier for s in gens} - elems
            elems = elems | frontier
        return len(elems)
    return order


@pytest.fixture(scope="session")
def vertex_glued_union():
    """W of vertex_glued_cycles(n, a) by the one-vertex union formula
    (Dobrynin, Entringer & Gutman, 2001) with sigma(C_a) = floor(a^2/4): for
    b = n + 1 - a, W(C_a) + W(C_b) + (b - 1) floor(a^2/4) + (a - 1) floor(b^2/4)."""
    def union(n, a):
        b = n + 1 - a
        return (wiener_cycle(a) + wiener_cycle(b)
                + (b - 1) * (a * a // 4) + (a - 1) * (b * b // 4))
    return union


@pytest.fixture
def alarm():
    """Turns a test that waits more than 60 s into a failure."""
    def expire(signum, frame):
        raise TimeoutError("still waiting after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
