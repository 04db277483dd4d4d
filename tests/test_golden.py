"""`diracpl solve` outputs against golden files written by an earlier build.

tests/golden/<case>/ holds samples.csv, coefficients.json and report.json of
the command in GOLDEN_CASES.  Regenerate one from tests/golden with
`diracpl solve <args> --out <case>` only when a change of the numbers is
intended and explained.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from diracpl.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

GOLDEN_CASES = {
    "readme-solve": ["--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1", "--N", "20"],
    "rep-b-n40": ["--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "40"],
    "rep-c-n40": ["--A", "1", "--mu", "2", "--kappa", "-1", "--N", "40"],
    "eps-minus-n40": ["--A", "2", "--mu", "0.5", "--kappa", "-1", "--epsilon", "-1",
                      "--N", "40"],
}


def _samples(path):
    return np.loadtxt(path / "samples.csv", delimiter=",", skiprows=1)


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_solve_matches_golden(case, tmp_path):
    assert main(["solve", *GOLDEN_CASES[case], "--out", str(tmp_path)]) == 0
    golden = GOLDEN / case

    got = json.loads((tmp_path / "coefficients.json").read_text())
    want = json.loads((golden / "coefficients.json").read_text())
    assert [row["n"] for row in got] == [row["n"] for row in want]
    for key in ("f_n", "g_or_h_n"):
        np.testing.assert_allclose([row[key] for row in got], [row[key] for row in want],
                                   rtol=1e-12, atol=0.0)

    report = json.loads((golden / "report.json").read_text())
    stats = report["residual_stats"]
    rows, ref = _samples(tmp_path), _samples(golden)
    np.testing.assert_allclose(rows[:, 0], ref[:, 0], rtol=1e-14, atol=0.0)
    # phi_plus, phi_minus against the spinor scale: a component that is an
    # analytic zero (phi_minus of rep-b-n40) holds only roundoff, so its own
    # maximum is no scale to measure its roundoff against
    spinor_scale = np.max(np.abs(ref[:, 1:3]))
    for col in (1, 2):
        assert np.max(np.abs(rows[:, col] - ref[:, col])) <= 1e-12 * spinor_scale
    # the residual rows are cancellations; measure them against the term scale
    for col in (3, 4):
        assert np.max(np.abs(rows[:, col] - ref[:, col])) <= 1e-12 * stats["scale"]

    # the identity row sits at the 1e-15 roundoff floor: compare absolutely
    new_stats = json.loads((tmp_path / "report.json").read_text())["residual_stats"]
    assert abs(new_stats["max_identity_row_relative"]
               - stats["max_identity_row_relative"]) <= 1e-12
