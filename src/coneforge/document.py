"""JSON interchange format for algebras.

A document stores structure constants, metric and involution as
Scalar strings in the exact grammar, never floats, so writing and
re-reading an algebra reproduces it bit for bit.  Commutative tables
keep only the entries with i <= j; the mirror half is implied.
"""

from __future__ import annotations

import json

from . import exactlinalg as xl
from .algebra import Algebra
from .scalars import ZERO, Scalar, scalar_format, scalar_parse

__all__ = ["DocumentError", "to_document", "from_document", "dump_algebra", "load_algebra"]


class DocumentError(ValueError):
    """Malformed or inconsistent algebra document."""


_ENTRY_KEYS = {"i", "j", "k", "c"}


def _format_matrix(matrix: xl.Matrix) -> list[list[str]]:
    return [[scalar_format(x) for x in row] for row in matrix]


class _Parsed(dict):
    """scalar_parse of each distinct string, parsed on its first lookup.  A
    document repeats few strings ("0" and "1" above all), and Scalar is
    never mutated, so entries may share the objects; every zero is ZERO,
    which the Algebra constructor skips by identity."""

    def __missing__(self, text: str) -> Scalar:
        value = self[text] = scalar_parse(text) or ZERO
        return value


def _parse_matrix(rows, what: str, parsed: _Parsed | None = None) -> xl.Matrix:
    """The Scalar matrix of a list of rows of strings, looked up in parsed,
    by default a fresh _Parsed."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise DocumentError(f"{what} must be a list of rows")
    parsed = _Parsed() if parsed is None else parsed
    # a non-string goes to scalar_parse, which raises with the usual message
    try:
        return [[parsed[x] if type(x) is str else scalar_parse(x) for x in row] for row in rows]
    except ValueError as err:
        raise DocumentError(f"bad scalar in {what}: {err}") from err


def to_document(alg: Algebra) -> dict:
    entries = []
    for (i, j), column in sorted(alg.table.items()):
        if alg.commutative and i > j:
            continue
        for k in sorted(column):
            entries.append({"i": i, "j": j, "k": k, "c": scalar_format(column[k])})
    doc = {
        "name": alg.name,
        "dim": alg.dim,
        "field": alg.field_tag,
        "commutative": alg.commutative,
        "metric": _format_matrix(alg.metric),
        "structure": entries,
    }
    if alg.involution is not None:
        doc["involution"] = _format_matrix(alg.involution)
    return doc


def from_document(doc: dict) -> Algebra:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    for key in ("dim", "field", "commutative", "metric", "structure"):
        if key not in doc:
            raise DocumentError(f"missing field {key!r}")
    dim = doc["dim"]
    # type(), not isinstance: JSON true and false load as bool, an int
    if type(dim) is not int or dim < 1:
        raise DocumentError("dim must be a positive integer")
    commutative = doc["commutative"]
    if not isinstance(commutative, bool):
        raise DocumentError("commutative must be a boolean")
    if not isinstance(doc["structure"], list):
        raise DocumentError("structure must be a list of entries")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise DocumentError("name must be a string")

    parsed = _Parsed()
    entries = []
    for entry in doc["structure"]:
        if not isinstance(entry, dict) or entry.keys() != _ENTRY_KEYS:
            raise DocumentError(f"bad structure entry {entry!r}")
        i, j, k, text = entry["i"], entry["j"], entry["k"], entry["c"]
        # type(), not isinstance: JSON true and false load as bool, an int
        if not (type(i) is type(j) is type(k) is int and 0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise DocumentError(f"structure index out of range in {entry!r}")
        if commutative and i > j:
            raise DocumentError(
                f"commutative document must store i <= j, got ({i}, {j}, {k})"
            )
        try:
            entries.append((i, j, k, parsed[text] if type(text) is str else scalar_parse(text)))
        except ValueError as err:
            raise DocumentError(f"bad scalar {text!r}: {err}") from err

    involution = None
    if "involution" in doc and doc["involution"] is not None:
        involution = _parse_matrix(doc["involution"], "involution", parsed)
    try:
        alg = Algebra(
            dim,
            entries,
            metric=_parse_matrix(doc["metric"], "metric", parsed),
            involution=involution,
            commutative=commutative,
            name=name,
        )
    except ValueError as err:
        raise DocumentError(str(err)) from err
    if doc["field"] not in ("Q", "Qr3"):
        raise DocumentError(f"unknown field tag {doc['field']!r}")
    if doc["field"] != alg.field_tag:
        raise DocumentError(
            f"field tag {doc['field']!r} does not match the entries ({alg.field_tag!r})"
        )
    return alg


def dump_algebra(alg: Algebra, path: str | None = None) -> str:
    text = json.dumps(to_document(alg), indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text


def load_algebra(path: str) -> Algebra:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            raise DocumentError(f"not valid JSON: {err}") from err
    return from_document(doc)
