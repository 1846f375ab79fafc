"""Shared fixtures: warmed graph censuses and their build timings, a
timeout for tests that could hang, and the automorphism group order oracle."""
import signal
import time

import pytest

from wienerlab.canon import canon_rows
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
