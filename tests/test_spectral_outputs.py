"""Golden outputs of the spectral block, replayed through the command line.

``tests/data/spectral_outputs.json`` holds the stdout and exit code of
``report <doc> --peirce --json --seed S`` for seeds 0-2 on sixteen catalog
documents, written by ``coneforge construct``, and on the README's
``construct from-cubic`` example.  It pins the (n1, n2, d), the
multiplicities, the idempotent norm and the residual that the idempotent
search feeds into a report.

Exit codes and every non-float field must match exactly.  Floats may move
by 1e-11 relative to max(1, |golden|): the float layer is allowed to
reorder its sums, never to change a verdict or a multiplicity.  The
residual |c c - c| is the rounding noise left by the Newton polish, and
its digits follow the BLAS kernels of the machine, so it is held to the
polish tolerance of ``find_idempotent`` (1e-10) instead of its golden value.

Regenerate the file, only when an output is meant to change, with

    python tests/test_spectral_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from coneforge import cli  # noqa: E402

DATA = os.path.join(HERE, "data", "spectral_outputs.json")

MEMBERS = (
    "triple(R)", "triple(C)", "triple(H)", "triple(paraC)", "triple(cross3)",
    "triple(color)", "cartan(0)", "cartan(1)", "cartan(2)",
    "clifford(1,2)", "clifford(2,3)", "clifford(4,5)",
    "paraC", "cross7", "color", "O",
)
FROM_CUBIC = "1*x1^2*x2"
SEEDS = (0, 1, 2)
FLOAT_TOLERANCE = 1e-11
RESIDUAL_BOUND = 1e-10


def construct_argv(label: str) -> list[str]:
    if label == "from-cubic":
        return ["construct", "from-cubic", "--cubic", FROM_CUBIC]
    return ["construct", label]


def run(argv: list[str]) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return out.getvalue(), code


def replay(label: str, directory: str) -> list[dict]:
    path = os.path.join(directory, "doc.json")
    _, code = run(construct_argv(label) + ["-o", path])
    assert code == 0, f"construct {label} failed"
    results = []
    for seed in SEEDS:
        stdout, code = run(["report", path, "--peirce", "--json", "--seed", str(seed)])
        results.append({"seed": seed, "stdout": stdout, "exit": code})
    return results


def _golden() -> dict:
    with open(DATA) as handle:
        return json.load(handle)


def assert_close(got, want, where: str = "") -> None:
    """Equal structure and non-float leaves; floats within the tolerance."""
    if where.endswith(".residual"):
        assert isinstance(got, float) and 0.0 <= got <= RESIDUAL_BOUND, f"{where}: {got}"
    elif isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and isinstance(want, (int, float)), where
        assert abs(got - want) <= FLOAT_TOLERANCE * max(1.0, abs(want)), f"{where}: {got} != {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for index, (a, b) in enumerate(zip(got, want)):
            assert_close(a, b, f"{where}[{index}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


LABELS = MEMBERS + ("from-cubic",)


@pytest.mark.parametrize("label", LABELS)
def test_spectral_outputs_match_golden(label, tmp_path):
    golden = _golden()[label]
    for got, want in zip(replay(label, str(tmp_path)), golden, strict=True):
        assert got["seed"] == want["seed"] and got["exit"] == want["exit"]
        assert_close(json.loads(got["stdout"]), json.loads(want["stdout"]), f"{label}@{want['seed']}")


def test_golden_covers_every_document_and_has_spectra():
    golden = _golden()
    assert sorted(golden) == sorted(LABELS)
    # the block the file is there to pin: a spectrum on every commutative
    # radial member; O, color, cross7 and the from-cubic plane have none
    with_spectrum = {
        label
        for label, entries in golden.items()
        if all(json.loads(entry["stdout"]).get("spectral") for entry in entries)
    }
    assert with_spectrum == set(MEMBERS) - {"O", "color", "cross7"}


def test_tolerance_rejects_a_changed_multiplicity():
    with pytest.raises(AssertionError):
        assert_close({"m": [[-0.5, 2]]}, {"m": [[-0.5, 3]]})
    with pytest.raises(AssertionError):
        assert_close({"r": 1.0 + 1e-9}, {"r": 1.0})
    assert_close({"r": 1.0 + 1e-13}, {"r": 1.0})


def test_residual_is_held_to_the_polish_tolerance():
    assert_close({"residual": 9e-11}, {"residual": 4e-12}, "spectral")
    with pytest.raises(AssertionError):
        assert_close({"residual": 2e-10}, {"residual": 4e-12}, "spectral")
    with pytest.raises(AssertionError):
        assert_close({"residual": None}, {"residual": 4e-12}, "spectral")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        golden = {label: replay(label, directory) for label in LABELS}
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {sum(map(len, golden.values()))} outputs for {len(golden)} documents to {DATA}")
