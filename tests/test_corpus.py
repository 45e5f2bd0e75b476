"""Fixture registry: self-validating corpus of the explicit complexes."""

import pytest

import sx.corpus as corpus
from sx import Complex
from sx.corpus import DFM_SEEDS, expand_orbits, fixture, fixture_names
from sx.errors import UnknownFixture


def test_registry_loads_everything():
    for name in fixture_names():
        fx = fixture(name)
        assert (fx.complex is None) != (fx.certificate is None)
        assert fx.provenance


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixture("nope")


def test_orbit_expansion_lengths():
    gen = {i: (i + 1) % 16 for i in range(16)}
    lengths = [len(expand_orbits([seed], gen).facet_sets) for seed in DFM_SEEDS]
    assert lengths == [16, 16, 16, 8, 16, 16, 16]
    assert len(expand_orbits(DFM_SEEDS, gen).facet_sets) == 104


def test_orbit_of_fixed_seed_has_length_one():
    gen = {1: 2, 2: 1, 3: 3}
    assert len(expand_orbits([(1, 2)], gen).facet_sets) == 1


def test_dfm_expected_record(dfm):
    assert dfm.f_vector() == (16, 120, 208, 104)
    assert dfm.is_l_neighborly(2)
    degrees = {len(dfm.star(e).facet_sets) for e in dfm.faces(1)}
    assert 3 not in degrees


def test_sigma_universal_vertex(sigma):
    lk = sigma.link(("6p",))
    assert len(lk.vertices) == 15  # adjacent to every other vertex


def test_ziegler_boundaries_agree(ziegler_b1, ziegler_b2, ziegler_s2):
    assert ziegler_b1.boundary() == ziegler_s2 == ziegler_b2.boundary()
    assert len(ziegler_b1.facet_sets) == 7
    assert len(ziegler_b2.facet_sets) == 21


def test_lutz_boundaries_agree(lutz_b1, lutz_b2, lutz_s2):
    assert lutz_b1.boundary() == lutz_s2 == lutz_b2.boundary()
    assert len(lutz_b1.facet_sets) == 5
    assert len(lutz_b2.facet_sets) == 15


def test_lutz_shelling_certificate_fixture():
    cert = fixture("lutz_b2_shelling_cert").certificate
    assert cert.length == 14
    assert cert.kind == "shelling"
    assert cert.result_digest == fixture("lutz_b2").complex.digest


def test_sphere_fixture_counts():
    assert len(fixture("ziegler_s3_10").complex.facet_sets) == 28
    assert len(fixture("lutz_s3_8").complex.facet_sets) == 20
    assert len(fixture("s6_19").complex.vertices) == 19
    assert len(fixture("d7_19").complex.vertices) == 19


@pytest.fixture
def fresh_corpus():
    corpus._build.cache_clear()
    yield
    corpus._build.cache_clear()


def test_a_sphere_missing_a_facet_fails_self_validation(monkeypatch, fresh_corpus):
    # drop a facet of the hemisphere ziegler_b2 from the shipped 3-sphere:
    # the sphere fails its facet count, and the ball built from it fails too
    real = corpus._data

    def short(name):
        c = real(name)
        if name == "ziegler_s3_10.fac":
            c = Complex(c.facet_sets - {frozenset((0, 1, 2, 8))})
        return c

    monkeypatch.setattr(corpus, "_data", short)
    with pytest.raises(AssertionError, match="fixture ziegler_s3_10 failed self-validation: facet count"):
        fixture("ziegler_s3_10")
    with pytest.raises(AssertionError, match="failed self-validation"):
        fixture("ziegler_b2")
