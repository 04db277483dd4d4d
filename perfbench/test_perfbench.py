"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import diracpl.solution  # noqa: E402
from diracpl.basis import PhysicalParams  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_op_output_is_byte_identical(name, tmp_path):
    workload = workloads.make(name, 7, tmp_path)
    workloads.warm_up(workload)
    workload.prepare_op(0)
    plain = workloads.output_bytes(workload, 0, workloads.run_op(workload, 0))
    with Tracer() as tracer:
        traced = workloads.output_bytes(workload, 0, workloads.run_op(workload, 0))
    assert len(tracer.starts) > 0
    assert plain and traced == plain


def test_same_seed_same_inputs():
    first = [workloads.draw_sweep_pass(workloads._rng(3, 0)) for _ in range(2)]
    again = [workloads.draw_sweep_pass(workloads._rng(3, 0)) for _ in range(2)]
    assert first == again
    assert workloads.draw_grid_params(3) == workloads.draw_grid_params(3)


def test_new_seed_new_mu_and_sweep_stays_all_miss(tmp_path):
    mus = {seed: [case.mu for case in workloads.draw_sweep_pass(workloads._rng(seed, 0))]
           for seed in (1, 2)}
    assert all(a != b for a, b in zip(mus[1], mus[2]))
    assert workloads.draw_grid_params(1) != workloads.draw_grid_params(2)

    for seed in (1, 2):
        workload = workloads.make("sweep-cold", seed, tmp_path / str(seed))
        workload.prepare_op(0)
        with Tracer() as tracer:
            assert workloads.run_op(workload, 0) == [0] * len(workloads.SLOTS)
        metrics = tracer.metrics(1)
        assert metrics["forms.integrate_product.calls"] >= len(workloads.SLOTS)
        assert metrics["forms.rule_miss_ratio"] == 1.0
        assert workload.check(0, [0] * len(workloads.SLOTS)) is None


def test_call_through_solution_binding_is_counted():
    sol = diracpl.solution.solve(PhysicalParams(A=1.0, mu=-1.5, kappa=-3), N=4)
    with Tracer() as tracer:
        diracpl.solution.integrate_product(sol.form_plus, sol.form_plus, sol.basis.measure)
    metrics = tracer.metrics(1)
    assert metrics["forms.integrate_product.calls"] == 1
    assert metrics["orthopoly.laguerre_all.calls"] >= 1
    # the wrappers are gone again
    assert diracpl.solution.integrate_product is diracpl.forms.integrate_product
    assert not hasattr(diracpl.solution.integrate_product, "__wrapped__")


def test_self_time_excludes_children():
    sol = diracpl.solution.solve(PhysicalParams(A=1.0, mu=-1.5, kappa=-3), N=6)
    r = diracpl.solution.default_r_grid(sol.basis)
    with Tracer() as tracer:
        diracpl.solution.dirac_residual(sol, r)
    m = tracer.metrics(1)
    assert m["solution.dirac_residual.calls"] == 1
    children = m["forms.LaguerreForm.eval.total_s"] + m["forms.LaguerreForm.d_dr.total_s"]
    assert m["solution.dirac_residual.self_s"] == pytest.approx(
        m["solution.dirac_residual.total_s"] - children, abs=1e-9)
    assert m["orthopoly.laguerre_values"] > 0


def test_tail_has_ten_ops_beyond_it():
    latencies = [float(i) for i in range(100)]
    value, pct = run.tail(latencies)
    assert sum(v > value for v in latencies) == 10 and pct == 90.0
    assert run.tail([1.0, 2.0, 3.0])[1] == 50.0


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_grid_check_rejects_a_broken_identity_row(tmp_path):
    workload = workloads.make("residual-grid", 5, tmp_path)
    workloads.warm_up(workload)
    outputs = workloads.run_op(workload, 0)
    assert workload.check(0, outputs) is None
    row1, row2, scale, plus, minus = outputs[0][0]
    outputs[0][0] = (row1, row2 + 1e-3 * np.max(scale), scale, plus, minus)
    assert "identity row" in workload.check(0, outputs)
