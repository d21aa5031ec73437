"""The idempotent search on every catalog member with a spectrum, held to a
golden and to its step counts.

``tests/data/idempotent_search.json`` holds, for each member of
``PEIRCE_TABLE`` but ``C`` (an involution: no spectrum) and for seeds 0-2
at 20 restarts:

- the number of idempotents ``find_idempotent`` returns and their squared
  norms h(c, c), in its order;
- (n1, n2, d) and the clustered multiplicities of ``peirce``;
- the candidate steps of the sphere ascents: ``steps`` is the most any
  start took, ``row_steps`` their sum over the starts.

The search may polish to other points of a family of idempotents, so the
points themselves are not pinned; their count, norms and spectra are.
Norms are held to 1e-11, as in ``tests/test_spectral_outputs.py``: the
golden was captured while the Newton polish inverted near-null singular
values, which left norms up to 1.7e-12 away from 3/4 on the Clifford
members.  ``test_triple_and_clifford_idempotents_have_norm_three_quarters``
holds the polish to the exact value instead.

The file records the search as it ran before the stall stop of
``_ascend`` and the 1e-8 cutoff of the Newton polish went in, so that
the tests compare the two.  It was written by running

    python tests/test_idempotent_search.py

in a checkout of that code; regenerating it from the current code would
lose the comparison (``test_golden_covers_every_member_and_seed`` notices).
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from coneforge import numeric  # noqa: E402
from coneforge.catalog import construct  # noqa: E402

DATA = os.path.join(HERE, "data", "idempotent_search.json")

MEMBERS = (
    "R", "paraC",
    "triple(R)", "triple(C)", "triple(H)", "triple(O)", "triple(paraC)",
    "triple(paraH(2))", "triple(cross3)", "triple(cross7)", "triple(color)",
    "cartan(0)", "cartan(1)", "cartan(2)", "cartan(4)", "cartan(8)",
    "clifford(1,2)", "clifford(2,3)", "clifford(4,5)", "clifford(8,9)", "clifford(16,10)",
)
CARTAN = ("cartan(0)", "cartan(1)", "cartan(2)", "cartan(4)", "cartan(8)")
SEEDS = (0, 1, 2)
RESTARTS = 20


def ascent_steps(tensor: np.ndarray, dim: int, seed: int) -> tuple[int, int]:
    """(steps, row_steps) of the ascents from the starts find_idempotent draws.

    An ascent squares its start with _mul once, then once per candidate
    step, so a start's steps are its _mul calls less one; steps is the
    most any start took, row_steps their sum.
    """
    starts = np.random.default_rng(seed).standard_normal((RESTARTS, dim))
    counts = []
    mul = numeric._mul

    def counting(*args):
        counts[-1] += 1
        return mul(*args)

    numeric._mul = counting
    try:
        for start in starts:
            if numeric._norm(start) >= 1e-12:
                counts.append(-1)
                numeric._ascend(tensor, start)
    finally:
        numeric._mul = mul
    return max(counts), sum(counts)


def summary(name: str, seed: int) -> dict:
    alg = construct(name)
    frame, tensor = numeric.orthonormal_frame(alg), numeric.structure_tensor(alg)
    pairs = numeric.find_idempotent(alg, restarts=RESTARTS, seed=seed)
    data = numeric.peirce(alg, seed=seed)  # at find_idempotent's default, 20 restarts
    steps, row_steps = ascent_steps(tensor, alg.dim, seed)
    return {
        "count": len(pairs),
        "norms": [float(np.sum(np.linalg.solve(frame, c) ** 2)) for c, _ in pairs],
        "peirce": [data.n1, data.n2, data.d],
        "multiplicities": [[value, count] for value, count in data.eigenvalues],
        "steps": steps,
        "row_steps": row_steps,
    }


def _golden() -> dict:
    with open(DATA) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden():
    return _golden()


CASES = [(name, seed) for name in MEMBERS for seed in SEEDS]


@pytest.mark.parametrize("name,seed", CASES)
def test_search_matches_golden(golden, name, seed):
    got, want = summary(name, seed), golden[name][str(seed)]
    assert got["count"] == want["count"]
    assert np.abs(np.subtract(got["norms"], want["norms"])).max(initial=0.0) <= 1e-11
    assert got["peirce"] == want["peirce"]
    assert [m for _, m in got["multiplicities"]] == [m for _, m in want["multiplicities"]]
    for (value, _), (golden_value, _) in zip(got["multiplicities"], want["multiplicities"]):
        assert abs(value - golden_value) <= 1e-11
    if name in CARTAN:
        # every ascent stalls short of the 1e-10 tangent stop on these members;
        # the stall stop ends them well before the 400-step cap
        assert got["steps"] <= 100 < want["steps"]
        assert got["row_steps"] < want["row_steps"]
    else:
        # ascents that converge run exactly the steps they ran before
        assert (got["steps"], got["row_steps"]) == (want["steps"], want["row_steps"])


THREE_QUARTERS = [name for name in MEMBERS if name.startswith(("triple(", "clifford("))]


@pytest.mark.parametrize("name", THREE_QUARTERS)
def test_triple_and_clifford_idempotents_have_norm_three_quarters(name):
    # every idempotent the search finds on these members has h(c, c) = 3/4;
    # the polish reaches it to rounding, where inverting the near-null
    # singular values of 2 L(c) - I left it up to 1.7e-12 off
    for seed in SEEDS:
        norms = summary(name, seed)["norms"]
        assert norms and np.abs(np.subtract(norms, 0.75)).max() <= 1e-14


def test_golden_covers_every_member_and_seed(golden):
    assert sorted(golden) == sorted(MEMBERS)
    assert all(sorted(golden[name]) == [str(s) for s in SEEDS] for name in MEMBERS)
    # the search found idempotents everywhere, and the Cartan members ran
    # the full 400-step cap before the stall stop
    assert all(golden[name][str(s)]["count"] > 0 for name in MEMBERS for s in SEEDS)
    assert [golden[name][str(s)]["steps"] for name in CARTAN for s in SEEDS] == [400] * 15


if __name__ == "__main__":
    golden = {name: {str(seed): summary(name, seed) for seed in SEEDS} for name in MEMBERS}
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(MEMBERS) * len(SEEDS)} searches for {len(MEMBERS)} members to {DATA}")
