"""JSON document format: bit-exact round trips and input validation."""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coneforge import document
from coneforge import exactlinalg as xl
from coneforge.algebra import Algebra, _scalarize
from coneforge.catalog import clifford_system, construct, polar_from_clifford
from coneforge.document import (
    DocumentError,
    dump_algebra,
    from_document,
    load_algebra,
    to_document,
)
from coneforge.scalars import Scalar
from oracles import field_tag, lift_per_entry, summed_table

ROUND_TRIP_NAMES = [
    "R",
    "H",
    "O",
    "paraC",
    "paraH(4)",
    "cross7",
    "color",
    "cartan(1)",
    "triple(cross3)",
    "triple(triple(R))",
]


@pytest.mark.parametrize("name", ROUND_TRIP_NAMES)
def test_round_trip_is_bit_exact(name):
    alg = construct(name)
    again = from_document(to_document(alg))
    assert again == alg
    assert again.name == alg.name


def test_polar_round_trip():
    alg = polar_from_clifford(clifford_system(2, 3))
    assert from_document(to_document(alg)) == alg


def test_commutative_table_stores_lower_triangle_only():
    doc = to_document(construct("triple(R)"))
    assert doc["commutative"] is True
    assert all(entry["i"] <= entry["j"] for entry in doc["structure"])
    # the mirrored half is implied, not stored
    assert len(doc["structure"]) == 3


def test_involution_is_omitted_when_identity():
    assert "involution" not in to_document(construct("paraC"))
    assert "involution" in to_document(construct("H"))


def test_field_tags():
    assert to_document(construct("O"))["field"] == "Q"
    doc = to_document(construct("cartan(2)"))
    assert doc["field"] == "Qr3"
    assert any("r3" in entry["c"] for entry in doc["structure"])


def test_coefficients_are_scalar_strings():
    doc = to_document(construct("cartan(0)"))
    assert all(isinstance(entry["c"], str) for entry in doc["structure"])
    assert all(isinstance(x, str) for row in doc["metric"] for x in row)


def test_file_round_trip(tmp_path):
    path = tmp_path / "t_cross7.json"
    alg = construct("triple(cross7)")
    text = dump_algebra(alg, str(path))
    assert json.loads(path.read_text()) == json.loads(text)
    assert load_algebra(str(path)) == alg


def test_dump_without_path_returns_text_only(tmp_path):
    text = dump_algebra(construct("R"))
    assert json.loads(text)["dim"] == 1


VALUES = st.one_of(
    st.integers(-3, 3),
    st.fractions(-2, 2, max_denominator=4),
    st.builds(Scalar, st.fractions(-2, 2, max_denominator=3), st.sampled_from([0, 1, Fraction(-1, 2)])),
)


@st.composite
def constructor_inputs(draw):
    """(dim, entries, metric, involution, commutative) as a caller passes them
    to Algebra: ints, Fractions and Scalars over Q(sqrt 3), repeated slots
    that add up or cancel, a metric with an off-diagonal pair, and an
    involution of signs, a scaled swap of two coordinates, or none."""
    dim = draw(st.integers(1, 5))
    commutative = draw(st.booleans())
    index = st.integers(0, dim - 1)
    entries = []
    for i, j, k, c in draw(st.lists(st.tuples(index, index, index, VALUES), max_size=12)):
        i, j = (min(i, j), max(i, j)) if commutative else (i, j)
        entries.append((i, j, k, c))
        repeat = draw(st.sampled_from([None, 1, -1]))
        if repeat is not None:
            entries.append((i, j, k, repeat * c))
    metric = [[draw(VALUES.filter(bool)) if i == j else 0 for j in range(dim)] for i in range(dim)]
    if dim > 1:
        metric[0][1] = metric[1][0] = m = draw(VALUES)
        assume(_scalarize(metric[0][0]) * _scalarize(metric[1][1]) != _scalarize(m) * m)
    involution = draw(st.sampled_from([None, "signs", "swap"]))
    if involution is not None:
        involution = [[draw(st.sampled_from([1, -1])) if i == j else 0 for j in range(dim)] for i in range(dim)]
        if dim > 1 and draw(st.booleans()):
            scale = draw(VALUES.filter(bool))
            involution[0][0] = involution[1][1] = 0
            involution[1][0], involution[0][1] = scale, 1 / _scalarize(scale)
    return dim, entries, metric, involution, commutative


@given(constructor_inputs())
@settings(max_examples=150, deadline=None)
def test_one_pass_constructor_and_load_match_the_per_entry_lift(inputs):
    dim, entries, metric, involution, commutative = inputs
    alg = Algebra(dim, entries, metric=metric, involution=involution, commutative=commutative)
    table = summed_table(dim, entries)
    if commutative:
        table.update({(j, i): dict(column) for (i, j), column in list(table.items())})
    assert alg.table == table
    assert alg.metric == [[_scalarize(x) for x in row] for row in metric]
    sigma = None if involution is None else [[_scalarize(x) for x in row] for row in involution]
    assert alg.involution == (None if sigma == xl.identity(dim) else sigma)
    again = from_document(to_document(alg))
    assert again == alg
    for one in (alg, again):
        forms = one._integer_forms
        assert (forms.denominator, forms.slots, forms.metric_rows, forms.involution_rows) == lift_per_entry(one)
        assert one.field_tag == field_tag(one)


class TestRejects:
    def base(self):
        return to_document(construct("triple(R)"))

    def test_missing_key(self):
        doc = self.base()
        del doc["metric"]
        with pytest.raises(DocumentError, match="missing field 'metric'"):
            from_document(doc)

    def test_not_an_object(self):
        with pytest.raises(DocumentError, match="JSON object"):
            from_document([1, 2])

    def test_bad_dim(self):
        doc = self.base()
        doc["dim"] = 0
        with pytest.raises(DocumentError, match="positive integer"):
            from_document(doc)

    def test_index_out_of_range(self):
        doc = self.base()
        doc["structure"][0]["k"] = 7
        with pytest.raises(DocumentError, match="out of range"):
            from_document(doc)

    def test_upper_triangle_rejected_for_commutative(self):
        doc = self.base()
        doc["structure"].append({"i": 2, "j": 1, "k": 0, "c": "1"})
        with pytest.raises(DocumentError, match="i <= j"):
            from_document(doc)

    def test_bad_scalar_string(self):
        doc = self.base()
        doc["structure"][0]["c"] = "1.5"
        with pytest.raises(DocumentError, match="bad scalar"):
            from_document(doc)

    @pytest.mark.parametrize("bad", ["1/0", "2+1/0r3", "1/0r3"])
    def test_zero_denominator_in_an_entry(self, bad):
        doc = self.base()
        doc["structure"][0]["c"] = bad
        with pytest.raises(DocumentError, match="bad scalar .*zero denominator"):
            from_document(doc)

    def test_unknown_field_tag(self):
        doc = self.base()
        doc["field"] = "R"
        with pytest.raises(DocumentError, match="unknown field tag"):
            from_document(doc)

    def test_mismatched_field_tag(self):
        doc = to_document(construct("cartan(1)"))
        doc["field"] = "Q"
        with pytest.raises(DocumentError, match="does not match"):
            from_document(doc)

    def test_extra_entry_keys(self):
        doc = self.base()
        doc["structure"][0]["extra"] = 1
        with pytest.raises(DocumentError, match="bad structure entry"):
            from_document(doc)

    def test_degenerate_metric_reported_as_document_error(self):
        doc = self.base()
        doc["metric"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]
        with pytest.raises(DocumentError, match="nondegenerate"):
            from_document(doc)

    # exact messages; the base document's first entry is {i: 0, j: 1, k: 2, c: "1"}
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["structure"][0].update(i=True), "structure index out of range in {'i': True, 'j': 1, 'k': 2, 'c': '1'}"),
            (lambda d: d["structure"][0].update(k=3), "structure index out of range in {'i': 0, 'j': 1, 'k': 3, 'c': '1'}"),
            (lambda d: d["structure"].__setitem__(0, [0, 0, 0, "1"]), "bad structure entry [0, 0, 0, '1']"),
            (lambda d: d["structure"][0].update(extra=1), "bad structure entry {'i': 0, 'j': 1, 'k': 2, 'c': '1', 'extra': 1}"),
            (lambda d: d["structure"][0].pop("c"), "bad structure entry {'i': 0, 'j': 1, 'k': 2}"),
            (lambda d: d["structure"].append({"i": 2, "j": 1, "k": 0, "c": "1"}), "commutative document must store i <= j, got (2, 1, 0)"),
            (lambda d: d["metric"][1].pop(), "metric must be a square matrix of the algebra dimension"),
            (lambda d: d.__setitem__("metric", "1"), "metric must be a list of rows"),
        ],
        ids=["index-true", "index-dim", "entry-not-dict", "extra-key", "missing-key", "upper-triangle", "short-row", "metric-not-list"],
    )
    def test_malformed_document_keeps_its_message(self, edit, message):
        doc = self.base()
        edit(doc)
        with pytest.raises(DocumentError) as caught:
            from_document(doc)
        assert str(caught.value) == message

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError, match="not valid JSON"):
            load_algebra(str(path))


class TestMetricParsing:
    def test_diagonal_metric_parses_each_distinct_string_once(self, monkeypatch):
        n = 24
        metric = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        alg = Algebra(n, [(i, i, i, 1) for i in range(n)], metric=metric, commutative=True)
        doc = to_document(alg)
        calls = []
        parse = document.scalar_parse

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(document, "scalar_parse", counting)
        metric = document._parse_matrix(doc["metric"], "metric")
        assert sorted(calls) == ["0", "2"]
        assert metric == alg.metric
        calls.clear()
        assert from_document(doc) == alg
        # "1" once for the n structure entries, then "2" and "0" for the metric
        assert calls == ["1", "2", "0"]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1.5", "bad scalar in metric: not a scalar at position 1: '1.5'"),
            (7, "bad scalar in metric: scalar text must be a string at position 0: '7'"),
            ("", "bad scalar in metric: empty scalar at position 0: ''"),
            ("1+", "bad scalar in metric: not a scalar at position 1: '1+'"),
            (None, "bad scalar in metric: scalar text must be a string at position 0: 'None'"),
            ([1], "bad scalar in metric: scalar text must be a string at position 0: '[1]'"),
            ("1/0", "bad scalar in metric: zero denominator at position 2: '1/0'"),
            ("2+1/0r3", "bad scalar in metric: zero denominator at position 4: '2+1/0r3'"),
        ],
    )
    def test_bad_metric_entry_keeps_its_message(self, bad, message):
        doc = to_document(construct("triple(R)"))
        # the bad entry comes after "1" and "0" have been parsed and kept
        doc["metric"][2][2] = bad
        with pytest.raises(DocumentError) as caught:
            from_document(doc)
        assert str(caught.value) == message


class TestStructureParsing:
    def counted(self, monkeypatch):
        calls = []
        parse = document.scalar_parse

        def counting(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(document, "scalar_parse", counting)
        return calls

    @pytest.mark.parametrize("name", ["triple(color)", "cartan(2)", "clifford(2,3)", "H"])
    def test_each_distinct_string_is_parsed_once(self, monkeypatch, name):
        alg = construct(name)
        doc = to_document(alg)
        strings = [entry["c"] for entry in doc["structure"]]
        strings += [x for matrix in (doc["metric"], doc.get("involution") or []) for row in matrix for x in row]
        calls = self.counted(monkeypatch)
        assert from_document(doc) == alg
        assert sorted(calls) == sorted(set(strings)) and len(calls) < len(strings)

    @pytest.mark.parametrize("bad", [7, None, [1], 1.5])
    def test_a_non_string_coefficient_keeps_its_message(self, bad):
        doc = to_document(construct("triple(R)"))
        # after a "1" has been parsed and kept
        doc["structure"][1]["c"] = bad
        with pytest.raises(DocumentError) as caught:
            from_document(doc)
        assert str(caught.value) == f"bad scalar {bad!r}: scalar text must be a string at position 0: '{bad!r}'"

    def test_a_bad_string_after_a_good_one_keeps_its_message(self):
        doc = to_document(construct("triple(R)"))
        doc["structure"][1]["c"] = "1.5"
        with pytest.raises(DocumentError) as caught:
            from_document(doc)
        assert str(caught.value) == "bad scalar '1.5': not a scalar at position 1: '1.5'"
