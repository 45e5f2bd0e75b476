import itertools
import random

import pytest

from sx import Complex
from sx.corpus import fixture, fixture_names
from sx.growth import grow_shelled_ball, grow_stellated_sphere


@pytest.fixture(scope="session")
def dfm():
    return fixture("dfm_s3_16").complex


@pytest.fixture(scope="session")
def dfm_ball():
    return fixture("dfm_b4_16").complex


@pytest.fixture(scope="session")
def sigma():
    return fixture("bl_sigma3_16").complex


@pytest.fixture(scope="session")
def ziegler_b1():
    return fixture("ziegler_b1").complex


@pytest.fixture(scope="session")
def ziegler_b2():
    return fixture("ziegler_b2").complex


@pytest.fixture(scope="session")
def ziegler_s2():
    return fixture("ziegler_s2_10").complex


@pytest.fixture(scope="session")
def lutz_b1():
    return fixture("lutz_b1").complex


@pytest.fixture(scope="session")
def lutz_b2():
    return fixture("lutz_b2").complex


@pytest.fixture(scope="session")
def lutz_s2():
    return fixture("lutz_s2_8").complex


def _random_small_complex(rng, mixed, pure):
    """A complex on at most 8 vertices; mixed labels sort as strings, so
    their induced subcomplexes on integer labels order vertices otherwise."""
    pool = [1, 2, 10, 11, "a", "b", 3, 20] if mixed else list(range(1, 9))
    labels = rng.sample(pool, rng.randrange(1, 9))
    top = rng.randrange(1, min(len(labels), 4) + 1)
    return Complex(
        rng.sample(labels, top if pure else rng.randrange(1, top + 1))
        for _ in range(rng.randrange(1, 3 * len(labels)))
    )


@pytest.fixture(scope="session")
def differential_complexes():
    """Inputs for the tests that compare a kernel path with the code it
    replaced: random pure and non-pure complexes (some with mixed labels),
    seeded grown balls and spheres of dimension 1-4, and the corpus
    complexes with at most 400 facets.  The list opens with two surfaces:
    the 6-vertex RP², closed with Euler characteristic 1 like a disk, and a
    pinched torus (an annulus with both rims coned to one apex), a
    pseudomanifold that is not normal."""
    rng = random.Random(1977)
    rp2 = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
           (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]
    pinched = [(1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6),
               (1, 2, 7), (2, 3, 7), (1, 3, 7), (4, 5, 7), (5, 6, 7), (4, 6, 7)]
    out = [Complex(rp2), Complex(pinched)]
    out += [
        _random_small_complex(rng, mixed=i % 3 == 0, pure=i % 2 == 0)
        for i in range(150)
    ]
    for dim in (1, 2, 3, 4):
        for _ in range(3):
            k = rng.randrange(1, dim + 1)
            out.append(grow_shelled_ball(dim, k, rng.randrange(1, 9), rng)[0])
            out.append(grow_stellated_sphere(dim, k, rng.randrange(1, 9), rng)[0])
    for name in fixture_names():
        c = fixture(name).complex
        if c is not None and len(c.facets) <= 400:
            out.append(c)
    return out


def collapse_replays(c: Complex, witness: dict) -> bool:
    """Replay a collapse witness on the set of nonempty faces of c.  The set
    stays downward closed, so a face is free when exactly one face of one
    more vertex contains it, and that face must be the step's coface."""
    faces = {
        frozenset(sub)
        for f in c.facet_sets
        for r in range(1, len(f) + 1)
        for sub in itertools.combinations(f, r)
    }
    verts = c.vertex_set
    for free, coface in witness["collapse_steps"]:
        free, coface = frozenset(free), frozenset(coface)
        above = [free | {v} for v in verts - free if free | {v} in faces]
        if free not in faces or above != [coface]:
            return False
        faces -= {free, coface}
    return len(witness["final_vertex"]) == 1 and faces == {frozenset(witness["final_vertex"])}
