"""JSON document format: bit-exact round trips and input validation."""

import json

import pytest

from coneforge import document
from coneforge.algebra import Algebra
from coneforge.catalog import clifford_system, construct, polar_from_clifford
from coneforge.document import (
    DocumentError,
    dump_algebra,
    from_document,
    load_algebra,
    to_document,
)

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
