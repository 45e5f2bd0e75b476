"""Facet text and JSON formats round-trip exactly."""

import io

import pytest

from sx import from_facets
from sx.errors import EmptyInput
from sx.io import dumps_fac, dumps_json, load, loads_fac, loads_json, parse_label


def test_parse_label_numeric_vs_string():
    assert parse_label("12") == 12
    assert parse_label("-3") == -3
    assert parse_label("1p") == "1p"
    assert parse_label("a") == "a"


def test_fac_comments_and_blank_lines():
    text = "# header\n\n1 2 3\n2 3 4  # trailing\n"
    c = loads_fac(text)
    assert c.facets == ((1, 2, 3), (2, 3, 4))


def test_fac_round_trip():
    c = from_facets([[1, 2, "1p"], [2, "1p", "7p"]])
    again = loads_fac(dumps_fac(c, name="x"))
    assert again == c


def test_json_round_trip_preserves_label_types():
    c = from_facets([[1, 2, "1p"], [2, "1p", "7p"]])
    again, name = loads_json(dumps_json(c, name="demo"))
    assert again == c
    assert name == "demo"


def test_fac_json_cross_round_trip():
    text = "0 1 2\n1 2 3\n"
    c = loads_fac(text)
    c2, _ = loads_json(dumps_json(c))
    assert dumps_fac(c2) == dumps_fac(c)


def test_load_sniffs_format():
    c, name = load(io.StringIO('{"name":"n","facets":[[1,2],[2,3]]}'))
    assert name == "n"
    assert c.f_vector() == (3, 2)
    c2, name2 = load(io.StringIO("1 2\n2 3\n"))
    assert c2 == c
    assert name2 is None


def test_empty_fac_raises():
    with pytest.raises(EmptyInput):
        loads_fac("# nothing here\n")


def test_json_requires_facets_key():
    with pytest.raises(ValueError):
        loads_json('{"name": "x"}')


@pytest.mark.parametrize("label", ["[2]", "2.5", "true", "null", '{"a": 1}'])
def test_json_rejects_labels_that_are_neither_int_nor_str(label):
    with pytest.raises(ValueError, match="integers or strings"):
        loads_json('{"facets": [[1, %s]]}' % label)


@pytest.mark.parametrize("facets", ["5", '"ab"', "[5]", '["12"]'])
def test_json_rejects_facets_that_are_not_arrays(facets):
    with pytest.raises(ValueError, match="array of arrays"):
        loads_json('{"facets": %s}' % facets)


@pytest.mark.parametrize("name", ["[3]", "5", '["a"]'])
def test_json_rejects_a_name_that_is_not_a_string(name):
    with pytest.raises(ValueError, match='"name" must be a string or null'):
        loads_json('{"facets": [[1, 2], [2, 3]], "name": %s}' % name)


@pytest.mark.parametrize("text, name", [
    ('{"facets": [[1, 2], [2, 3]], "name": null}', None),
    ('{"facets": [[1, 2], [2, 3]]}', None),
    ('{"facets": [[1, 2], [2, 3]], "name": "path"}', "path"),
])
def test_json_name_may_be_null_or_absent(text, name):
    c, got = loads_json(text)
    assert got == name
    assert c == from_facets([[1, 2], [2, 3]])


from hypothesis import given, settings
from hypothesis import strategies as st

label = st.one_of(
    st.integers(-20, 99),
    st.text(alphabet="abcdefgp0123456789", min_size=1, max_size=3).filter(
        lambda s: not s.lstrip("-").isdigit()
    ),
)
facet = st.frozensets(label, min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(facet, min_size=1, max_size=8))
def test_fac_round_trip_property(facets):
    c = from_facets(facets)
    assert loads_fac(dumps_fac(c)) == c
    again, _ = loads_json(dumps_json(c))
    assert again == c
