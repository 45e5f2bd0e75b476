"""Named fixtures: the explicit complexes used throughout the test corpus.

Each fixture is a name, a provenance and a builder, in one ordered table.
A builder checks what it builds the first time the fixture is used: the
Dougherty-Faber-Murphy sphere its f-vector and orbit-expansion digest, the
Bjorner-Lutz sphere its f-vector, the pipeline complexes their vertex
counts, the shipped spheres and the hemispheres their facet counts, and the
balls that their boundary is the sphere they bound.  Orbit-described
complexes ship as seed facets plus one generating permutation and are
expanded at load time; primed vertex labels are encoded as "1p".."7p" to
keep the text format 7-bit clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable

from .complexes import Complex, Label
from .constructions import double_suspension_pipeline, vertex_ball
from .errors import UnknownFixture
from .io import loads_fac
from .moves import MoveCertificate, shelling_moves_from_facet_order

__all__ = ["Fixture", "fixture", "fixture_names", "expand_orbits"]

# Dougherty-Faber-Murphy unflippable 3-sphere: seven seed facets modulo the
# cyclic shift i -> i+1 (mod 16); the fourth seed has an orbit of length 8.
DFM_SEEDS = ((0, 1, 4, 6), (0, 1, 4, 9), (0, 1, 6, 14), (0, 1, 8, 9),
             (0, 1, 8, 10), (0, 1, 10, 14), (0, 2, 9, 13))

# Lutz's printed shelling order for the 15-facet ball; seed facet first.
LUTZ_B2_SHELLING_ORDER = (
    (1, 3, 5, 7), (1, 3, 5, 6), (1, 3, 6, 8), (1, 3, 4, 8), (1, 2, 4, 8),
    (3, 4, 6, 8), (1, 5, 6, 8), (1, 5, 7, 8), (1, 2, 7, 8), (2, 4, 6, 8),
    (2, 6, 7, 8), (1, 2, 3, 7), (2, 4, 6, 7), (2, 3, 5, 7), (2, 4, 5, 7),
)

# The stacked hemispheres B1, whose dual graphs are paths; the other
# hemisphere B2 is the rest of the 3-sphere.
ZIEGLER_B1 = ((0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6),
              (4, 5, 6, 7), (5, 6, 7, 8), (6, 7, 8, 9))
LUTZ_B1 = ((1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 6, 7), (5, 6, 7, 8))


@dataclass(frozen=True)
class Fixture:
    name: str
    provenance: str
    complex: Complex | None = None
    certificate: MoveCertificate | None = None


def expand_orbits(seeds: Iterable[Iterable[Label]], generator: dict) -> Complex:
    """Union of the orbits of the seed facets under the cyclic group
    generated by one vertex permutation."""
    facets = set()
    for seed in seeds:
        cur = frozenset(seed)
        while cur not in facets:
            facets.add(cur)
            cur = frozenset(generator[v] for v in cur)
    return Complex(facets)


def _data(name: str) -> Complex:
    text = resources.files("sx.data").joinpath(name).read_text(encoding="utf-8")
    return loads_fac(text)


def _check(cond: bool, name: str, what: str):
    if not cond:
        raise AssertionError(f"fixture {name} failed self-validation: {what}")


def _complex(name: str) -> Complex:
    """A fixture's complex, looked up past `fixture` so that only outside
    lookups go through it."""
    return _build(name).complex


def _dfm(name: str) -> Complex:
    c = expand_orbits(DFM_SEEDS, {i: (i + 1) % 16 for i in range(16)})
    _check(c.f_vector() == (16, 120, 208, 104), name, "f-vector")
    digest = "4e4e4e280195ff124ceb19c5ca0934a3f5829b94ed9a45ca25537d89bf907ccb"
    _check(c.digest == digest, name, "orbit expansion digest")
    return c


def _dfm_ball(name: str) -> Complex:
    s = _complex("dfm_s3_16")
    c = vertex_ball(s, 0)
    _check(c.boundary() == s, name, "boundary recovers the sphere")
    return c


def _counted(make, measure, want, what: str):
    """A builder for make(name) that checks measure(complex) == want."""
    def build(name: str) -> Complex:
        c = make(name)
        _check(measure(c) == want, name, what)
        return c
    return build


def _read(name: str) -> Complex:
    """The fixture's own `.fac` file, looked up in `_data` at build time."""
    return _data(f"{name}.fac")


def _shipped(facets: int):
    """The fixture's own `.fac` file, checked by its facet count."""
    return _counted(_read, lambda c: len(c.facet_sets), facets, "facet count")


def _pipeline(f0: int):
    return _counted(lambda name: double_suspension_pipeline()[name],
                    lambda c: len(c.vertices), f0, "vertex count")


def _hemisphere(b1, facets: int, splitting: str, sphere: str | None = None):
    """The stacked hemisphere b1, or with a sphere named the sphere's other
    facets, checked by facet count and by its boundary, the splitting
    2-sphere."""
    def build(name: str) -> Complex:
        c = Complex(b1)
        if sphere is not None:
            c = Complex(_complex(sphere).facet_sets - c.facet_sets)
        _check(len(c.facet_sets) == facets, name, "facet count")
        _check(c.boundary() == _complex(splitting), name, "boundary is the separating 2-sphere")
        return c
    return build


def _lutz_shelling(name: str) -> MoveCertificate:
    return MoveCertificate(
        kind="shelling",
        start_digest=Complex([LUTZ_B2_SHELLING_ORDER[0]]).digest,
        moves=tuple(shelling_moves_from_facet_order(LUTZ_B2_SHELLING_ORDER)),
        result_digest=_complex("lutz_b2").digest,
    )


_PIPELINE = "double-suspension pipeline over the Bjorner-Lutz homology sphere"
_FIXTURES = {
    "dfm_s3_16": ("Dougherty-Faber-Murphy 16-vertex unflippable 3-sphere", _dfm),
    "dfm_b4_16": (
        "cone over the antistar of vertex 0 in the Dougherty-Faber-Murphy sphere", _dfm_ball),
    "bl_sigma3_16": (
        "Bjorner-Lutz 16-vertex triangulation of the Poincare homology 3-sphere",
        _counted(_read, Complex.f_vector, (16, 106, 180, 90), "f-vector")),
    "d4_16": (_PIPELINE, _pipeline(16)),
    "s5_18": (_PIPELINE, _pipeline(18)),
    "d6_18": (_PIPELINE, _pipeline(18)),
    "d7_19": (_PIPELINE, _pipeline(19)),
    "s6_19": (_PIPELINE, _pipeline(19)),
    "ziegler_s3_10": (
        "Ziegler's 10-vertex 3-sphere containing the non-shellable ball", _shipped(28)),
    "ziegler_s2_10": (
        "the 2-sphere splitting Ziegler's 3-sphere into two hemispheres", _shipped(16)),
    "ziegler_b1": (
        "the stacked hemisphere of Ziegler's 3-sphere (dual graph a path)",
        _hemisphere(ZIEGLER_B1, 7, "ziegler_s2_10")),
    "ziegler_b2": (
        "Ziegler's strongly non-shellable, collapsible 3-ball",
        _hemisphere(ZIEGLER_B1, 21, "ziegler_s2_10", "ziegler_s3_10")),
    "lutz_s3_8": (
        "Lutz's 8-vertex 3-sphere containing the unique-ear ball", _shipped(20)),
    "lutz_s2_8": (
        "the 2-sphere splitting Lutz's 3-sphere into two hemispheres", _shipped(12)),
    "lutz_b1": (
        "the stacked hemisphere of Lutz's 3-sphere (dual graph a path)",
        _hemisphere(LUTZ_B1, 5, "lutz_s2_8")),
    "lutz_b2": (
        "Lutz's shellable 3-ball with the single ear 2457",
        _hemisphere(LUTZ_B1, 15, "lutz_s2_8", "lutz_s3_8")),
    "lutz_b2_shelling_cert": (
        "the printed facet-by-facet shelling of Lutz's 15-facet ball", _lutz_shelling),
}


@lru_cache(maxsize=None)
def _build(name: str) -> Fixture:
    provenance, builder = _FIXTURES[name]
    made = builder(name)
    if isinstance(made, MoveCertificate):
        return Fixture(name, provenance, certificate=made)
    return Fixture(name, provenance, complex=made)


def fixture_names() -> tuple[str, ...]:
    return tuple(_FIXTURES)


def fixture(name: str) -> Fixture:
    if name not in _FIXTURES:
        raise UnknownFixture(f"no fixture named {name!r}")
    return _build(name)
