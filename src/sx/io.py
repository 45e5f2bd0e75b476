"""Reading and writing complexes in the facet text (.fac) and JSON formats.

.fac: one facet per line, whitespace-separated vertex labels; ``#`` starts
a comment; blank lines are ignored.  Tokens consisting only of digits (with
an optional leading minus sign) parse as integers, everything else as a
string, so the two formats round-trip exactly.
"""

from __future__ import annotations

import json
import re
from typing import TextIO

from .complexes import Complex, Label, from_facets
from .errors import EmptyInput

_INT_TOKEN = re.compile(r"-?\d+\Z")


def parse_label(token: str) -> Label:
    if _INT_TOKEN.match(token):
        return int(token)
    return token


class _Tokens(dict):
    """Token -> label, each distinct token parsed once by `parse_label`."""

    def __missing__(self, token: str) -> Label:
        label = self[token] = parse_label(token)
        return label


def loads_fac(text: str) -> Complex:
    labels = _Tokens()
    facets = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        facets.append(list(map(labels.__getitem__, line.split())))
    if not facets:
        raise EmptyInput("no facets found in .fac input")
    return from_facets(facets)


def dumps_fac(x: Complex, name: str | None = None) -> str:
    lines = [f"# {name}"] if name else []
    lines += [" ".join(str(v) for v in f) for f in x.facets]
    return "\n".join(lines) + "\n"


def loads_json(text: str) -> tuple[Complex, str | None]:
    """Read {"facets": [[label, ...], ...], "name": ...}; labels are JSON
    integers or strings, the name is a string or null or absent, and
    anything else, nesting too deep to decode included, is a ValueError."""
    try:
        data = json.loads(text)
        if not isinstance(data, dict) or "facets" not in data:
            raise ValueError('JSON complex must be an object with a "facets" array')
        facets = data["facets"]
        if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
            raise ValueError('"facets" must be an array of arrays of vertex labels')
        for f in facets:
            for v in f:
                if isinstance(v, bool) or not isinstance(v, (int, str)):
                    raise ValueError(
                        f"vertex labels must be integers or strings, got {json.dumps(v)}"
                    )
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError(f'"name" must be a string or null, got {json.dumps(name)}')
    except RecursionError:
        raise ValueError("JSON input nests too deeply to decode") from None
    return from_facets(facets), name


def dumps_json(x: Complex, name: str | None = None) -> str:
    payload: dict = {}
    if name:
        payload["name"] = name
    payload["facets"] = [list(f) for f in x.facets]
    return json.dumps(payload, separators=(",", ":"), sort_keys=False)


def load(stream: TextIO, fmt: str | None = None) -> tuple[Complex, str | None]:
    """Read a complex from a stream, sniffing the format when not given."""
    text = stream.read()
    if fmt == "json" or (fmt is None and text.lstrip().startswith("{")):
        return loads_json(text)
    return loads_fac(text), None


def load_path(path: str, fmt: str | None = None) -> tuple[Complex, str | None]:
    if fmt is None and path.endswith(".json"):
        fmt = "json"
    with open(path, "r", encoding="utf-8") as fh:
        return load(fh, fmt)
