"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import dataclasses
import json
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.ROOT / "src"))

import fracopt  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny(workload):
    return workloads.warmup_problems(workloads.WORKLOADS[workload])


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def _declared(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_emitted_metric_names_and_units_match_benchmark_json():
    order = _tiny("control-n2")[:1] + _tiny("state-n2")[:1]
    passes = run.measure(order, seed=0, seconds=0.0, reference={}, tracer=None)
    e2e = run.end_to_end_metrics(passes, setup_times=[0.5, 0.4, 0.6])
    assert {k: u for k, (_, u) in e2e.items()} == _declared("end_to_end")

    tracer = tracing.Tracer()
    passes = run.measure(order, seed=0, seconds=0.0, reference={}, tracer=tracer)
    assert [ps["traced"] for ps in passes] == [False, True]
    layers = run.per_layer_metrics(passes, tracer.spans)
    assert {k: u for k, (_, u) in layers.items()} == _declared("per_layer")


def test_setup_samples_one_per_interval_plus_one():
    sampler = run.SetupSampler("control-n1-mu", seed=0)
    sampler.catch_up(0.0)
    sampler.catch_up(2 * run.SETUP_INTERVAL_S)
    assert len(sampler.times) == 3 and all(0.0 < t < 60.0 for t in sampler.times)


def test_setup_samples_between_problems_are_not_timed():
    class SlowSampler:
        calls = []

        def catch_up(self, measured_s):
            self.calls.append(measured_s)
            time.sleep(0.5)

    order = _tiny("control-n1-mu")[:2]
    passes = run.measure(order, seed=0, seconds=0.0, reference={}, tracer=None,
                         sampler=SlowSampler())
    problem_s = sum(r["seconds"] for r in passes[0]["problems"])
    assert passes[0]["seconds"] == pytest.approx(problem_s, abs=0.2)
    assert len(SlowSampler.calls) == 2 and 0.0 < SlowSampler.calls[0] < SlowSampler.calls[1]


def test_workload_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_tracing_restores_the_library():
    before = (fracopt.study.run_rate_study, fracopt.fem.CylinderOperator.solve,
              fracopt.meshes.TensorMesh.__init__, fracopt.control.assemble_stiffness)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert fracopt.study.run_rate_study is not before[0]
        assert fracopt.control.assemble_stiffness is fracopt.fem.assemble_stiffness
    after = (fracopt.study.run_rate_study, fracopt.fem.CylinderOperator.solve,
             fracopt.meshes.TensorMesh.__init__, fracopt.control.assemble_stiffness)
    assert after == before


def test_layer_self_times_add_up_to_the_traced_pass():
    order = _tiny("control-n1-mu")[:2]
    tracer = tracing.Tracer()
    passes = run.measure(order, seed=0, seconds=0.0, reference={}, tracer=tracer)
    m = run.per_layer_metrics(passes, tracer.spans)
    layer_self = ("fem.self_s", "control.self_s", "study.self_s", "meshes.build_s",
                  "spectral.oracle_s", "manufactured.build_s", "bench.self_s")
    per_pass = sum(m[k][0] for k in layer_self) * len(order)
    assert per_pass == pytest.approx(m["trace.sweep_s"][0], rel=1e-9)
    assert m["fem.solve_count"][0] > 0 and m["control.iterations"][0] > 0


@pytest.mark.parametrize("problem", [
    # the optimizer stops after one iteration without converging
    dataclasses.replace(_tiny("control-n1-mu")[0], max_iterations=1),
    # run_rate_study drops the row it could not converge
    dataclasses.replace(_tiny("control-n2")[0], tol=0.0),
])
def test_forced_failing_problem_is_counted(problem):
    passes = run.measure([problem], seed=0, seconds=0.0, reference={}, tracer=None)
    record = passes[0]["problems"][0]
    assert record["error"] is not None and record["outputs"] is None
    assert run.end_to_end_metrics(passes, [1.0])["solved_ratio"][0] == 0.0


def test_reference_check_flags_a_changed_result():
    p = _tiny("state-n2")[0]
    good = {"dofs": 27, "err_state_L2": 1e-3}
    assert workloads.check(p, dict(good), good) == []
    assert workloads.check(p, dict(good, err_state_L2=1e-3 + 1e-8), good)
    assert workloads.check(p, good, None)


def test_control_check_is_relative_to_each_error_functional():
    p = _tiny("control-n1-mu")[-1]
    good = {"err_control_L2": 5.8e-3, "err_state_L2": 1.75e-4}
    assert workloads.check(p, dict(good, err_state_L2=1.75e-4 * (1 + 1e-4)), good) == []
    assert workloads.check(p, dict(good, err_state_L2=1.75e-4 * 1.01), good)
    assert workloads.check(p, dict(good, err_control_L2=5.8e-3 * 0.99), good)


def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("bench.pass", 0.0, 10.0),
        S("study.run", 1.0, 9.0, parent=0),
        S("fem.factor", 2.0, 5.0, parent=1),
        S("control.optimize", 5.0, 8.5, parent=1),
        S("fem.solve", 6.0, 6.5, parent=3),
        S("fem.solve", 7.0, 8.0, parent=3),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 1.5, 3.0, 2.0, 0.5, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0].duration)


@pytest.mark.parametrize("n, q, beyond", [(3, 90.0, 0), (12, 90.0, 1), (100, 90.0, 10),
                                          (1000, 99.0, 10)])
def test_tail_percentile(n, q, beyond):
    value, got_q, got_beyond = run.tail([float(i) for i in range(n)])
    assert (got_q, got_beyond) == (q, beyond)
    assert value == n - 1 - beyond
