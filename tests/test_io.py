"""Facet text and JSON formats round-trip exactly, and any input parses or is rejected cleanly."""

import contextlib
import io
import json
import os
import tempfile

import pytest

from sx import Complex, from_facets
from sx.cli import main
from sx.errors import EmptyInput, SxError
from sx.io import dumps_fac, dumps_json, load, loads_fac, loads_json, parse_label


def test_parse_label_numeric_vs_string():
    assert parse_label("12") == 12
    assert parse_label("-3") == -3
    assert parse_label("1p") == "1p"
    assert parse_label("a") == "a"


@pytest.mark.parametrize(
    "text,facets",
    [
        ("-0 1 2\n", ((0, 1, 2),)),
        ("007 1 2\n7 2 3\n", ((1, 2, 7), (2, 3, 7))),
        ("7 007 8\n", ((7, 8),)),
        ("+3 3 4\n", (("+3", 3, 4),)),
        ("1e3 1000 1\n", ((1, 1000, "1e3"),)),
        ("- 1 2\n", (("-", 1, 2),)),
        ("w1 1 2\nw1 2 3\n", ((1, 2, "w1"), (2, 3, "w1"))),
    ],
)
def test_fac_tokens_parse_once_by_the_label_rules(text, facets):
    # each distinct token becomes the label parse_label gives it, so 007 and
    # 7 are one vertex and -0 is 0, while +3, 1e3, - and w1 stay strings,
    # and labels then sort as strings
    c = loads_fac(text)
    assert c.facets == facets
    assert [type(v) for f in c.facets for v in f] == [type(v) for f in facets for v in f]
    assert c.facet_sets == frozenset(frozenset(map(parse_label, line.split())) for line in text.splitlines())


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


# -- fuzzing: any input is a complex or a clean error ---------------------------

# short texts: a line holds at most a dozen tokens, so a parsed facet's
# face lattice stays small
fac_text = st.one_of(
    st.text(max_size=24),
    st.text(alphabet="0123456789-abp #\n\t\r", max_size=24),
)
scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(), st.text(max_size=4)
)
nested_json = st.recursive(
    scalar,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["facets", "name", "x"]) | st.text(max_size=3),
                      children, max_size=3),
    max_leaves=20,
)
# objects shaped like a complex, with a stray label, facet or name now and then
json_label = st.integers(-5, 20) | st.text(max_size=3)
json_complex = st.fixed_dictionaries(
    {"facets": st.lists(st.lists(json_label, min_size=1, max_size=6), max_size=5)
               | st.lists(st.lists(json_label | scalar, max_size=6), max_size=5)
               | nested_json},
    optional={"name": st.none() | st.text(max_size=5) | nested_json},
)


def _parses_or_rejects(parse, text):
    try:
        c = parse(text)
    except (SxError, ValueError):
        return
    assert isinstance(c, Complex)


def _info_exit_code(text: str, suffix: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in" + suffix)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["info", path])
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert err.getvalue().startswith("error: "), err.getvalue()
    return code


@settings(max_examples=150, deadline=None)
@given(fac_text)
def test_loads_fac_fuzz_returns_a_complex_or_a_clean_error(text):
    _parses_or_rejects(loads_fac, text)
    assert _info_exit_code(text, ".fac") in (0, 65)


@settings(max_examples=150, deadline=None)
@given(nested_json | json_complex)
def test_loads_json_fuzz_returns_a_complex_or_a_clean_error(value):
    text = json.dumps(value)
    _parses_or_rejects(lambda t: loads_json(t)[0], text)
    assert _info_exit_code(text, ".json") in (0, 65)
