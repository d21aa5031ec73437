"""Command-line behavior: exit codes, output shapes, document plumbing."""

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coneforge import cli
from coneforge.analysis import verify_polar
from coneforge.catalog import construct
from coneforge.document import dump_algebra

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def doc(tmp_path):
    def write(name):
        path = tmp_path / f"{name.replace('(', '_').replace(')', '')}.json"
        dump_algebra(construct(name), str(path))
        return str(path)

    return write


class TestConstruct:
    def test_stdout_document(self, capsys):
        code, out, _ = run(capsys, "construct", "R")
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "t_color.json"
        code, out, _ = run(capsys, "construct", "triple(color)", "-o", str(target))
        assert code == 0 and "dim 18" in out
        assert json.loads(target.read_text())["dim"] == 18

    def test_cartan_document_field(self, capsys, tmp_path):
        target = tmp_path / "c2.json"
        code, _, _ = run(capsys, "construct", "cartan(2)", "-o", str(target))
        doc = json.loads(target.read_text())
        assert code == 0 and doc["field"] == "Qr3" and doc["dim"] == 8

    def test_unknown_name_exits_2(self, capsys):
        code, _, err = run(capsys, "construct", "nonsense(3)")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("name, head, args", [
        ("cartan(--3)", "cartan", "['--3']"),
        ("clifford(1,--2)", "clifford", "['1', '--2']"),
        ("cartan(\u00b2)", "cartan", "['\u00b2']"),
    ])
    def test_malformed_integer_arguments_name_the_head(self, capsys, name, head, args):
        # only -?[0-9]+ is an integer argument; int() never sees the rest
        code, out, err = run(capsys, "construct", name)
        assert (code, out) == (2, "")
        assert f"{head} expects" in err and args in err and "int()" not in err

    def test_inadmissible_clifford_cites_rho(self, capsys):
        code, _, err = run(capsys, "construct", "clifford(1,3)")
        assert code == 2
        assert "rho(1)=1" in err

    def test_from_cubic(self, capsys, tmp_path):
        target = tmp_path / "lawson.json"
        code, _, _ = run(
            capsys, "construct", "from-cubic", "--cubic", "1*x1*x2*x3", "-o", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["dim"] == 3

    def test_from_cubic_requires_text(self, capsys):
        code, _, err = run(capsys, "construct", "from-cubic")
        assert code == 2 and "--cubic" in err

    def test_from_cubic_rejects_inhomogeneous(self, capsys):
        code, _, err = run(capsys, "construct", "from-cubic", "--cubic", "1*x1^2")
        assert code == 2 and "degree 3" in err

    @pytest.mark.parametrize("text", ["1/0*x1^3", "1/0r3*x1^3", "2+1/0r3*x1^3"])
    def test_from_cubic_zero_denominator_exits_2(self, capsys, text):
        code, out, err = run(capsys, "construct", "from-cubic", "--cubic", text)
        assert (code, out) == (2, "")
        assert "error:" in err and "zero denominator" in err and "Traceback" not in err

    def test_cubic_flag_only_for_from_cubic(self, capsys):
        code, _, err = run(capsys, "construct", "R", "--cubic", "1*x1^3")
        assert code == 2 and "from-cubic" in err

    def test_label_flag_only_for_from_cubic(self, capsys, tmp_path):
        target = tmp_path / "o.json"
        code, out, err = run(capsys, "construct", "O", "--label", "zzz", "-o", str(target))
        assert (code, out) == (2, "") and "--label" in err and "from-cubic" in err
        assert not target.exists()

    def test_from_cubic_stores_its_label(self, capsys):
        code, out, _ = run(capsys, "construct", "from-cubic", "--cubic", "1*x1*x2*x3", "--label", "zzz")
        assert code == 0 and json.loads(out)["name"] == "zzz"


class TestVerify:
    def test_hsiang_on_tripled_color(self, capsys, doc):
        code, out, _ = run(capsys, "verify", "hsiang", doc("triple(color)"))
        assert code == 0
        assert "theta = 4/3" in out

    def test_quasicomposition_color(self, capsys, doc):
        code, out, _ = run(capsys, "verify", "quasicomposition", doc("color"))
        assert code == 0
        assert "delta = 2" in out

    def test_skewed_linear_forms_radial_fails_nonradial_passes(self, capsys, tmp_path):
        from coneforge.cubic import algebra_from_cubic
        from coneforge.polynomials import parse_polynomial

        path = tmp_path / "lawson_skewed.json"
        skewed = algebra_from_cubic(
            parse_polynomial("1*x1^2*x2+1*x1*x2^2+1*x1*x2*x3", 3), name="skewed"
        )
        dump_algebra(skewed, str(path))
        code, _, _ = run(capsys, "verify", "hsiang", str(path))
        assert code == 1
        code, out, _ = run(capsys, "verify", "nonradial", str(path))
        assert code == 0
        assert "b =" in out

    def test_metrized_json_schema(self, capsys, doc):
        code, out, _ = run(capsys, "verify", "metrized", doc("O"), "--json")
        payload = json.loads(out)
        assert code == 0
        assert set(payload) == {"check", "pass", "theta", "delta", "n1", "n2", "d", "witness"}

    def test_quasicomposition_json_carries_delta(self, capsys, doc):
        code, out, _ = run(capsys, "verify", "quasicomposition", doc("cross7"), "--json")
        assert code == 0
        assert json.loads(out)["delta"] == 1

    def test_hsiang_json_theta_is_exact_string(self, capsys, doc):
        code, out, _ = run(capsys, "verify", "hsiang", doc("triple(H)"), "--json")
        assert code == 0
        assert json.loads(out)["theta"] == "4/3"

    def test_polar_requires_zero_block(self, capsys, doc):
        code, _, err = run(capsys, "verify", "polar", doc("clifford(1,2)"))
        assert code == 2 and "--zero-block" in err

    @pytest.mark.parametrize("check", [check for check in cli.VERIFY_CHECKS if check != "polar"])
    def test_zero_block_outside_polar_exits_2_before_loading(self, capsys, doc, check, tmp_path):
        for path in (doc("triple(C)"), str(tmp_path / "missing.json")):
            code, out, err = run(capsys, "verify", check, path, "--zero-block", "1")
            assert (code, out) == (2, "")
            assert err == "error: --zero-block is only valid with 'verify polar'\n"

    def test_polar_passes_with_block(self, capsys, doc):
        code, out, _ = run(
            capsys, "verify", "polar", doc("clifford(1,2)"), "--zero-block", "2,3"
        )
        assert code == 0 and "dim A0 = 2" in out

    def test_polar_wrong_block_fails(self, capsys, doc):
        code, out, _ = run(
            capsys, "verify", "polar", doc("clifford(1,2)"), "--zero-block", "0,1"
        )
        assert code == 1 and "witness" in out

    def test_polar_bad_block_text(self, capsys, doc):
        code, _, err = run(
            capsys, "verify", "polar", doc("clifford(1,2)"), "--zero-block", "2,x"
        )
        assert code == 2 and "comma-separated" in err

    def test_eikonal(self, capsys, doc):
        code, out, _ = run(capsys, "verify", "eikonal", doc("paraC"))
        assert code == 0 and "theta' = 1" in out
        code, _, _ = run(capsys, "verify", "eikonal", doc("triple(R)"))
        assert code == 1

    def test_killing_dichotomy(self, capsys, doc):
        code, out, _ = run(capsys, "verify", "killing", doc("triple(cross3)"))
        assert code == 0 and "kappa = 4 h" in out
        code, _, _ = run(capsys, "verify", "killing", doc("clifford(1,2)"))
        assert code == 1

    def test_cartan_munzner(self, capsys, doc):
        code, _, _ = run(capsys, "verify", "cartan-munzner", doc("cartan(4)"))
        assert code == 0
        code, _, _ = run(capsys, "verify", "cartan-munzner", doc("paraC"))
        assert code == 1

    def test_noncommutative_input_is_invalid_for_hsiang(self, capsys, doc):
        code, _, err = run(capsys, "verify", "hsiang", doc("H"))
        assert code == 2 and "commutative" in err

    def test_internal_inconsistency_exits_3(self, capsys, doc, monkeypatch):
        def broken(alg, seed=0):
            raise RuntimeError("kernel dimensions disagree")

        monkeypatch.setattr(cli, "quasicomposition_check", broken)
        code, out, err = run(capsys, "verify", "quasicomposition", doc("cross3"))
        assert code == 3
        assert out == ""
        assert "internal inconsistency: kernel dimensions disagree" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "metrized", "/nonexistent/alg.json")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("structure", 5, "structure must be a list"),
            ("dim", True, "dim must be a positive integer"),
            ("index", False, "structure index out of range"),
            ("name", None, "name must be a string"),
            ("name", ["x"], "name must be a string"),
            ("entry", "1/0", "zero denominator"),
            ("metric", [["1/0"]], "zero denominator"),
        ],
    )
    def test_malformed_document_exits_2(self, capsys, tmp_path, field, value, message):
        # JSON true and false are Python bools, which pass isinstance(x, int)
        document = json.loads(dump_algebra(construct("R")))
        if field == "index":
            document["structure"][0]["k"] = value
        elif field == "entry":
            document["structure"][0]["c"] = value
        else:
            document[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(document))
        code, out, err = run(capsys, "verify", "metrized", str(path))
        assert (code, out) == (2, "")
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "name",
        ["R", "C", "H", "O", "paraC", "paraH(2)", "paraH(4)", "cross3", "cross7", "color"],
    )
    def test_catalog_leaves_keep_the_exit_code_contract(self, capsys, doc, name):
        # C is commutative with a nontrivial involution: radial at theta = -1,
        # not exact, yet of product rank 2 and not a cube
        path = doc(name)
        checks = ["metrized", "hsiang", "nonradial", "quasicomposition", "killing",
                  "eikonal", "cartan-munzner"]
        for argv in [("verify", check, path) for check in checks] + [("report", path)]:
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2), (argv, err)


class TestReport:
    def test_cartan0_peirce(self, capsys, doc):
        code, out, _ = run(capsys, "report", doc("cartan(0)"), "--peirce")
        assert code == 0
        assert "theta = 36" in out
        assert "(n1, n2) = (1, 0)" in out
        assert "0.02777" in out  # |c|^2 = 1/36

    def test_restarts_option_is_gone(self, capsys, doc):
        # the idempotent search always takes its 20 restarts
        with pytest.raises(SystemExit) as caught:
            cli.main(["report", doc("cartan(0)"), "--peirce", "--restarts", "20"])
        assert caught.value.code == 2 and "--restarts" in capsys.readouterr().err

    def test_involution_has_no_spectral_block(self, capsys, doc):
        # C is radial, but its involution leaves L(c) non-symmetric, so the
        # spectral block is null rather than a spectrum of a wrong operator
        code, out, _ = run(capsys, "report", doc("C"), "--peirce")
        assert code == 0 and "hsiang: radial" in out and "peirce:" not in out
        code, out, _ = run(capsys, "report", doc("C"), "--peirce", "--json")
        assert code == 0 and json.loads(out)["spectral"] is None

    def test_cube_is_degenerate(self, capsys, tmp_path):
        from coneforge.cubic import algebra_from_cubic
        from coneforge.polynomials import parse_polynomial

        path = tmp_path / "cube.json"
        dump_algebra(algebra_from_cubic(parse_polynomial("1*x1^3", 1)), str(path))
        code, out, _ = run(capsys, "report", str(path))
        assert code == 0
        assert "degenerate: yes" in out

    def test_indefinite_radial_cubic_exits_0(self, capsys, tmp_path):
        # its degeneracy conditions disagree, as they may on an indefinite metric
        from coneforge.polynomials import parse_polynomial
        from oracles import dense_algebra_from_cubic

        path = str(tmp_path / "indefinite.json")
        metric = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
        dump_algebra(dense_algebra_from_cubic(parse_polynomial("1*x1*x2^2+1*x2^2*x3", 3), metric=metric), path)
        code, out, err = run(capsys, "verify", "hsiang", path)
        assert code == 0, err
        assert "theta = 0" in out
        code, out, err = run(capsys, "report", path)
        assert code == 0, err
        assert "degenerate: yes" in out

    def test_readme_from_cubic_example_reports_without_degeneracy(self, capsys, tmp_path):
        # x1^2 x2 is not radial, so degeneracy is outside its domain
        path = str(tmp_path / "from_cubic.json")
        code, _, _ = run(capsys, "construct", "from-cubic", "--cubic", "1*x1^2*x2", "-o", path)
        assert code == 0
        code, out, err = run(capsys, "report", path, "--peirce", "--json")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["hsiang"]["radial"] is None
        assert "degeneracy" not in payload
        # nor is the spectral block, which runs on radial verdicts only
        assert "spectral" not in payload
        code, out, _ = run(capsys, "report", path, "--peirce")
        assert code == 0 and "degenerate:" not in out
        assert "peirce:" not in out

    def test_renamed_triple_gets_no_source_defect(self, capsys, tmp_path):
        # a document named triple(<name>) counts as that triple only when it
        # is one: triple(cross3) under the name triple(H) is not
        alg = construct("triple(cross3)")
        for name, compared in [("triple(cross3)", True), ("triple(H)", False)]:
            alg.name = name
            path = str(tmp_path / "renamed.json")
            dump_algebra(alg, path)
            code, out, err = run(capsys, "report", path, "--peirce", "--json")
            assert code == 0, err
            spectral = json.loads(out)["spectral"]
            assert (spectral["n1"], spectral["n2"], spectral["d"]) == (0, 5, 1)
            assert ("source_defect" in spectral) is compared
            assert ("defect_matches_d" in spectral) is compared

    def test_json_mode_round_trips(self, capsys, doc):
        code, out, _ = run(capsys, "report", doc("triple(cross7)"), "--peirce", "--json")
        assert code == 0
        payload = json.loads(out)
        spectral = payload["spectral"]
        assert (spectral["n1"], spectral["n2"], spectral["d"]) == (4, 5, 1)
        assert abs(spectral["idempotent_norm"] - 0.75) < 1e-8
        assert spectral["defect_matches_d"]

    def test_renamed_triple_reports_no_source_defect(self, capsys, tmp_path):
        # a triple(cross3) document under the name of another triple: the
        # name no longer matches the table, so no source is compared
        alg = construct("triple(cross3)")
        alg.name = "triple(H)"
        path = str(tmp_path / "renamed.json")
        dump_algebra(alg, path)
        code, out, err = run(capsys, "report", path, "--peirce", "--json")
        assert code == 0, err
        spectral = json.loads(out)["spectral"]
        assert spectral["d"] == 1
        assert "source_defect" not in spectral
        assert "defect_matches_d" not in spectral

    def test_exit_zero_even_when_checks_fail(self, capsys, doc):
        code, out, _ = run(capsys, "report", doc("H"))
        assert code == 0
        assert "quasicomposition: delta = 0" in out


class TestTable:
    def test_full_sweep_matches(self, capsys):
        code, out, err = run(capsys, "table")
        assert code == 0, err
        assert "all rows match" in out
        assert re.search(r"cartan\(8\)\s+26\s+9\s+0", out)

    def test_mismatch_names_the_row(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "QC_ROWS", (("cross3", 3, 1, 9, 0, 5, 2),))
        monkeypatch.setattr(cli, "CARTAN_ROWS", ())
        code, _, err = run(capsys, "table")
        assert code == 1
        assert "MISMATCH cross3" in err


class TestSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "hsiang", "DOC", "--seed", "-1"),
            ("verify", "quasicomposition", "DOC", "--seed=-3"),
            ("verify", "hsiang", "DOC", "--json", "--seed", "-3"),
            ("report", "DOC", "--peirce", "--seed", "-1"),
            ("table", "--seed", "-1"),
            ("report", "DOC", "--seed", "one"),
            ("verify", "hsiang", "DOC", "--seed", "1.5"),
            # int() reads these; the CLI's integer grammar does not
            ("verify", "hsiang", "DOC", "--seed", "1_0"),
            ("report", "DOC", "--seed", "+3"),
            ("table", "--seed", "\u0661"),
            ("verify", "quasicomposition", "DOC", "--seed", "-0"),
            ("report", "DOC", "--seed", "3 4"),
        ],
    )
    def test_a_seed_that_is_not_a_nonnegative_integer_exits_2_before_any_output(self, capsys, doc, argv):
        path = doc("triple(C)")
        with pytest.raises(SystemExit) as caught:
            cli.main([path if a == "DOC" else a for a in argv])
        captured = capsys.readouterr()
        assert caught.value.code == 2 and captured.out == ""
        value = argv[-1].rpartition("=")[2]
        assert f"argument --seed: expected a nonnegative integer, got {value}\n" in captured.err
        assert "Traceback" not in captured.err

    def test_seed_zero_and_above_are_accepted(self, capsys, doc):
        path = doc("triple(C)")
        for seed in ("0", "7"):
            code, out, _ = run(capsys, "report", path, "--peirce", "--seed", seed)
            assert code == 0 and "peirce:" in out


# the polar zero block of clifford(8,9), as the CLI takes it
CLIFFORD_89_BLOCK = "16,17,18,19,20,21,22,23,24"


class TestIntegerGrammar:
    """Every integer the CLI reads is -?[0-9]+ in ASCII between surrounding
    spaces, the grammar of catalog arguments; a --seed has no sign
    (``TestSeed`` holds the malformed seeds)."""

    @pytest.mark.parametrize("block", [
        ",16,,17,18,19,20,21,22,23,24,",
        "16,17,,",
        " , ",
        "1_6,17,18,19,20,21,22,23,24",
        "+16,17,18,19,20,21,22,23,24",
        "16,17,18,19,20,21,22,23,\u0662\u0664",
        "16;17",
    ])
    def test_a_malformed_zero_block_exits_2_before_any_output(self, capsys, doc, block):
        code, out, err = run(capsys, "verify", "polar", doc("clifford(8,9)"), "--zero-block", block)
        assert (code, out) == (2, "")
        assert f"--zero-block expects comma-separated indices, got {block!r}" in err

    @pytest.mark.parametrize("block", [CLIFFORD_89_BLOCK, " 16 ,17, 18,19,20,21,22,23,24 ", "16,17", "0"])
    def test_a_well_formed_zero_block_reads_as_its_indices(self, capsys, doc, block):
        code, out, _ = run(capsys, "verify", "polar", doc("clifford(8,9)"), "--zero-block", block, "--json")
        report = verify_polar(construct("clifford(8,9)"), [int(token) for token in block.split(",")])
        assert code == (0 if report.passed else 1)
        assert json.loads(out)["witness"] == (list(report.witness) if report.witness else None)

    def test_a_negative_index_is_read_and_refused_as_out_of_range(self, capsys, doc):
        path = doc("clifford(8,9)")
        for option in (["--zero-block=-1,16"], ["--zero-block", "-1,16"]):
            code, out, err = run(capsys, "verify", "polar", path, *option)
            assert (code, out) == (2, "") and "zero_block index out of range" in err

    def test_a_seed_between_spaces_reads_as_its_digits(self, capsys, doc):
        path = doc("triple(C)")
        outputs = [run(capsys, "verify", "hsiang", path, "--seed", seed) for seed in ("3", " 3 ", "03")]
        assert outputs[0][0] == 0 and outputs.count(outputs[0]) == 3


def outcome(argv):
    """(exit code, stdout, stderr) of cli.main(argv), an exit of argparse's included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as caught:
            code = caught.code
    return code, out.getvalue(), err.getvalue()


class TestOptionValues:
    """An option that takes a value takes the next token as its value,
    whatever that token starts with, as if joined to it by '='."""

    @pytest.mark.parametrize("head, option, value, code", [
        (("construct", "from-cubic"), "--cubic", "-1*x1^3", 0),
        (("construct", "from-cubic"), "--cubic", "-1/2+1r3*x1^2*x2+x2^3", 0),
        (("construct", "from-cubic"), "--cubic", "--x1^3", 2),
        (("construct", "from-cubic", "--cubic=1*x1^3"), "--label", "-L", 0),
        (("construct", "from-cubic", "--cubic=1*x1^3"), "--output", "-cube.json", 0),
        (("construct", "R"), "-o", "-r.json", 0),
        (("verify", "polar", "POLAR"), "--zero-block", "-1,16", 2),
        (("verify", "polar", "POLAR"), "--zero-block", "-16", 2),
        (("verify", "hsiang", "TRIPLE"), "--seed", "3", 0),
        (("verify", "hsiang", "TRIPLE", "--json"), "--seed", "-3", 2),
        (("report", "TRIPLE", "--peirce"), "--seed", "-x", 2),
    ])
    def test_separate_and_joined_spellings_agree(self, monkeypatch, tmp_path, head, option, value, code):
        monkeypatch.chdir(tmp_path)  # an output path may start with '-'
        dump_algebra(construct("clifford(8,9)"), "polar.json")
        dump_algebra(construct("triple(C)"), "triple.json")
        head = [{"POLAR": "polar.json", "TRIPLE": "triple.json"}.get(token, token) for token in head]
        separate = outcome([*head, option, value])
        assert separate == outcome([*head, f"{option}={value}"])
        assert separate[0] == code and (code == 0 or separate[1] == "")

    def test_value_options_are_the_parsers_options_that_take_one_value(self):
        parsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        taking = {
            option
            for sub in parsers.choices.values()
            for action in sub._actions
            if action.option_strings and action.nargs is None
            for option in action.option_strings
        }
        assert taking == set(cli.VALUE_OPTIONS)


@pytest.fixture(scope="module")
def polar_document(tmp_path_factory):
    path = tmp_path_factory.mktemp("grammar") / "clifford_1_2.json"
    dump_algebra(construct("clifford(1,2)"), str(path))
    return str(path)


def spaced(draw, index):
    return draw(st.sampled_from(["", " ", "  "])) + str(index) + draw(st.sampled_from(["", " ", "  "]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_zero_block_round_trip_and_empty_tokens(polar_document, data):
    # distinct indices joined with spaces around them read back exactly;
    # an empty token anywhere exits 2 with nothing on stdout
    indices = data.draw(st.lists(st.integers(-3, 60), min_size=1, max_size=6, unique=True), label="indices")
    tokens = [spaced(data.draw, i) for i in indices]
    assert cli._parse_zero_block(",".join(tokens)) == indices
    tokens.insert(data.draw(st.integers(0, len(tokens)), label="position"), data.draw(st.sampled_from(["", " "])))
    text = ",".join(tokens)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", "polar", polar_document, f"--zero-block={text}"])  # text may start with "-"
    assert (code, out.getvalue()) == (2, "")
    assert "--zero-block expects comma-separated indices" in err.getvalue()


# tokens from which the command route and the full parser are fed the same
# argv: commands and an abbreviation, checks, documents, a stray positional,
# every option with good and bad values, an abbreviated option, help, version,
# "--", unknown options, a negative number and an option-like token with a space
TOKENS = (
    *(name for name, _, _ in cli.COMMANDS), "ver", "tab",
    "hsiang", "polar", "nonsense", "doc.json", "triple(H)", "from-cubic", "stray",
    "--json", "--peirce", "--pe", "--seed", "0", "7", "-1", "abc", "--seed=3", "--seed=x",
    "--zero-block", "0,1", "-o", "out.json", "--output", "--cubic", "1*x1^3", "--label", "L",
    "-h", "--help", "--version", "--", "-", "--bogus", "-x", "-5", "-a b",
)
# an argv that each command's parser settles alone; tokens drawn after it are
# left over (a second command name among them), or read by that parser
SETTLED = (["construct", "R"], ["verify", "hsiang", "doc.json"], ["report", "doc.json"], ["table"])
argvs = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=7),
    st.tuples(st.sampled_from([name for name, _, _ in cli.COMMANDS]), st.lists(st.sampled_from(TOKENS), max_size=6)).map(
        lambda drawn: [drawn[0], *drawn[1]]
    ),
    st.tuples(st.sampled_from(SETTLED), st.lists(st.sampled_from(TOKENS), min_size=1, max_size=3)).map(
        lambda drawn: [*drawn[0], *drawn[1]]
    ),
)


def parse(parse_argv, argv):
    """What parse_argv(argv) does: the namespace or the exit code, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse_argv(argv))
        except SystemExit as caught:
            result = ("exit", caught.code)
    return result, out.getvalue(), err.getvalue()


def full_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.fixture
def built_parsers(monkeypatch):
    """Every argparse parser constructed while the test runs, in order."""
    built, init = [], argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    return built


class TestTrimmedParser:
    """cli._parse: a command's own parser, else the full parser."""

    @given(argvs)
    @settings(max_examples=400, deadline=None)
    def test_parses_exactly_like_the_full_parser(self, argv):
        assert parse(cli._parse, argv) == parse(full_parse, argv)

    @pytest.mark.parametrize("name", [name for name, _, _ in cli.COMMANDS])
    def test_command_help_is_byte_identical(self, name):
        routed = parse(cli._parse, [name, "-h"])
        assert routed == parse(full_parse, [name, "-h"])
        assert routed[0] == ("exit", 0) and routed[1].startswith(f"usage: coneforge {name} [-h]")

    def test_each_main_call_builds_its_own_parser(self, capsys, monkeypatch, doc, built_parsers):
        path = doc("triple(C)")
        full = cli.build_parser

        def refuse():
            raise AssertionError("a clean command argv built the full parser")

        # a clean argv builds its command's parser alone, anew on each call
        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(capsys, "verify", "hsiang", path)[0] == 0
        assert run(capsys, "report", path)[0] == 0
        assert [parser.prog for parser in built_parsers] == ["coneforge verify", "coneforge report"]
        assert built_parsers[0] is not built_parsers[1]

        # tokens left over: the full parser reports them, with its usage
        calls = []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or full())
        with pytest.raises(SystemExit) as caught:
            cli.main(["verify", "hsiang", path, "--version"])
        _, err = capsys.readouterr()
        assert caught.value.code == 2 and calls == [1]
        assert err.startswith("usage: coneforge [-h] [--version]")
        assert err.endswith("error: unrecognized arguments: --version\n")


class TestEnvironment:
    def test_module_entry_point(self):
        # the child gets src on its path, as pytest does from pyproject.toml
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "coneforge.cli", "construct", "cross3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dim"] == 3
