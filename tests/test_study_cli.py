"""Study harness, manufactured problem, reporting, and the CLI."""

import functools
import json
import logging
import math
import os
import warnings

import numpy as np
import pytest

from fracopt import (
    BasePartition,
    ConfigurationError,
    GradedPartition,
    ReducedProblem,
    SolverError,
    StudyConfig,
    TensorMesh,
    build_manufactured,
    choose_truncation,
    eigenpair,
    emit_report,
    extension_profile,
    first_eigenvalue,
    fit_loglog_slope,
    run_compare_refinement,
    run_oracle_check,
    run_rate_study,
    run_truncation_study,
)
from fracopt import study
from fracopt.cli import main, read_config_file
from fracopt.fem import BaseQuadrature, FeField


# ---------------------------------------------------------------------------
# manufactured problem
# ---------------------------------------------------------------------------


def test_manufactured_lambda_power():
    mp = build_manufactured(0.5, 2)
    assert mp.lam == pytest.approx(8.0 * math.pi**2)
    assert mp.lam_s == pytest.approx(8.8858, abs=2e-4)


def test_manufactured_clamps():
    mp = build_manufactured(0.3, 2)
    # peak of the driving mode: -pbar/mu = 1 clamps to the upper bound
    assert mp.z_exact(0.125, 0.125) == pytest.approx(0.5)
    # negative region clamps to the lower bound
    assert mp.z_exact(0.75, 0.25) == 0.0


def test_manufactured_state_equation_identity():
    # L^s ubar = f + zbar pointwise, i.e. lam^s ubar - f - zbar = 0
    mp = build_manufactured(0.42, 2)
    rng = np.random.default_rng(0)
    x1, x2 = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
    lhs = mp.lam_s * mp.u_exact(x1, x2)
    rhs = mp.forcing(x1, x2) + mp.z_exact(x1, x2)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_manufactured_adjoint_identity():
    # L^s pbar = ubar - u_d pointwise
    mp = build_manufactured(0.42, 1)
    x = np.linspace(0.01, 0.99, 41)
    lhs = mp.lam_s * mp.p_exact(x)
    rhs = mp.u_exact(x) - mp.u_d(x)
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_manufactured_projection_identity():
    mp = build_manufactured(0.7, 1)
    x = np.linspace(0, 1, 101)
    assert np.allclose(mp.z_exact(x), np.clip(-mp.p_exact(x) / mp.mu, 0.0, 0.5))


def test_manufactured_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        build_manufactured(0.0, 2)


def test_manufactured_vi_residual_shrinks_under_refinement():
    # plugging the cellwise-projected exact control into the discrete
    # optimality map gives residuals that vanish with the mesh
    mp = build_manufactured(0.5, 1)
    problem = mp.problem()
    res = []
    for N in (8, 16, 32):
        Y = choose_truncation(0.5, first_eigenvalue(1), N * N, 1)
        mesh = TensorMesh(BasePartition(1, N), GradedPartition(N, 3.1, Y))
        quad = BaseQuadrature(mesh.base, 3)  # cell averages of the exact control
        z = quad.eval_callable(mp.z_exact) @ quad.weights / mesh.base.cell_volume
        rp = ReducedProblem(problem, mesh)
        _, _, rep = rp.evaluate(rp.cell_point_values(z), "fully_discrete")
        res.append(rep.vi_residual)
    assert res[0] > res[1] > res[2]
    assert res[-1] <= 5e-3


# ---------------------------------------------------------------------------
# fits and records
# ---------------------------------------------------------------------------


def test_fit_recovers_exact_power_law():
    xs = [100, 400, 1600, 6400]
    ys = [3.0 * x**-0.75 for x in xs]
    slope, resid = fit_loglog_slope(xs, ys)
    assert slope == pytest.approx(-0.75, abs=1e-12)
    assert resid <= 1e-12


def test_fit_handles_degenerate_input():
    slope, resid = fit_loglog_slope([10.0], [1.0])
    assert math.isnan(slope)


def test_a_line_through_one_abscissa_has_no_slope():
    # a least-squares line through one abscissa is not unique: it has no slope
    assert all(math.isnan(v) for v in fit_loglog_slope([10.0, 10.0], [1.0, 2.0]))
    assert study._truncation_slope([1.0, 1.0], [1e-2, 1e-4], 0.0) == (None, 2)


def test_rate_fit_stability_drop_coarsest():
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256, 1024, 4096, 16384))
    rec = run_oracle_check(cfg)[0]
    full, _ = rec.fit("err_state_L2")
    tail, _ = fit_loglog_slope([row["cells"] for row in rec.rows[1:]],
                               [row["err_state_L2"] for row in rec.rows[1:]])
    assert abs(full - tail) < 0.1
    assert rec.checks["oracle_slope_band"]


def test_oracle_slope_band_rejects_uniform_mesh():
    # without grading the singular layer at y=0 caps the trace rate well
    # below the a priori exponent -(1+s)/(n+1)
    cfg = StudyConfig(s_values=(0.3,), n=1, gamma=1.0,
                      dof_targets=(256, 1024, 4096, 16384))
    rec = run_oracle_check(cfg)[0]
    assert rec.slopes["err_state_L2"] > rec.extras["expected_slope"]
    assert not rec.checks["oracle_slope_band"]


def test_oracle_check_rejects_degenerate_grading():
    # s=0.01 grades with gamma=150.1: the first of 128 layers underflows
    cfg = StudyConfig(s_values=(0.01,), n=1, dof_targets=(16384,))
    with pytest.raises((ConfigurationError, SolverError)):
        run_oracle_check(cfg)


def test_oracle_extension_diagnostic_decreases():
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256, 1024, 4096))
    rec = run_oracle_check(cfg)[0]
    exts = [row["err_extension_nodes"] for row in rec.rows]
    assert exts[0] > exts[1] > exts[2]


@pytest.mark.parametrize("n", [1, 2])
def test_extension_node_rms_keeps_its_expression_bit_for_bit(n):
    # formed in place in the kron product; the value of the expression it replaced
    s, lam, N = 0.5, n * math.pi**2, 12
    mesh = TensorMesh(BasePartition(n, N), GradedPartition(N, 3.1, 1.5))
    V = FeField(mesh, np.random.default_rng(n).standard_normal(mesh.n_free))
    psi = np.array([extension_profile(s, lam, float(y)) for y in mesh.extended.nodes[:-1]])
    coords = mesh.base.node_coords[mesh.base.interior_nodes]
    phi = eigenpair((1,) * n, n)[1]
    exact = lam**-s * np.kron(psi, phi(*coords.T) / 2.0)
    assert study._extension_node_rms(V, s, lam, exact_trace_scale=lam**-s, phi=phi,
                                     phi_scale=2.0) == float(
        np.sqrt(np.mean((V.free_values - exact) ** 2)))


def test_truncation_study_structure():
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256,))
    rec = run_truncation_study(cfg, (1.0, 1.2))
    assert [row["Y"] for row in rec.rows] == [1.0, 1.2]
    assert "log_err_control_vs_Y" in rec.slopes
    assert rec.rows[0]["err_control_L2"] >= rec.rows[1]["err_control_L2"]


def test_truncation_rows_cut_the_reference_partition(monkeypatch):
    # a row differs from the reference in its height only: same y-nodes below Y
    meshes = []

    def recording(problem, mesh, **kw):
        meshes.append(mesh)
        return solve(problem, mesh, **kw)

    solve = study.solve_fully_discrete
    monkeypatch.setattr(study, "solve_fully_discrete", recording)
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256,))
    rec = run_truncation_study(cfg, (1.0, 1.5, 2.0))
    reference, rows = meshes[0].extended.nodes, meshes[1:]
    assert reference[-1] == rec.Y == 6.0
    for row, mesh in zip(rec.rows, rows, strict=True):
        Y, nodes = row["Y"], mesh.extended.nodes
        assert np.array_equal(nodes[:-1], reference[reference < Y]) and nodes[-1] == Y
        assert (row["cells"], row["dofs"]) == (mesh.n_cells, mesh.n_free)
    assert len({row["cells"] for row in rec.rows}) == len(rec.rows)


def test_truncation_slope_ends_at_the_first_zero_error():
    # bit-equal iterates give error 0: fit the positive prefix, take no log(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope, rows = study._truncation_slope([1.0, 2.0, 3.0, 4.0], [1e-4, 1e-8, 1e-12, 0.0],
                                              0.0)
    assert rows == 3 and slope == pytest.approx(-4.0 * math.log(10.0))
    assert study._truncation_slope([1.0, 2.0], [1e-4, 0.0], 0.0) == (None, 1)


def test_truncation_slope_ends_at_the_rounding_floor():
    # a row a few ulps from the reference still falls by 20 percent; the floor drops it
    Ys, errs = [1.0, 2.0, 3.0, 4.0], [1e-4, 1e-8, 1e-12, 6e-17]
    slope, rows = study._truncation_slope(Ys, errs, study.TRUNCATION_FLOOR_RTOL * 0.3)
    assert rows == 3 and slope == pytest.approx(-4.0 * math.log(10.0))
    assert study._truncation_slope(Ys, errs, 0.0)[1] == 4


def test_truncation_with_fewer_than_two_positive_errors_fails_its_check(monkeypatch, tmp_path,
                                                                        capsys):
    # every row returns the reference's solve, so every error is exactly 0
    def reference_solve(problem, mesh, **kw):
        if not results:
            results.append(solve(problem, mesh, **kw))
        return results[0]

    results, solve = [], study.solve_fully_discrete
    monkeypatch.setattr(study, "solve_fully_discrete", reference_solve)
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256,))
    rec = run_truncation_study(cfg, (1.0, 1.2))
    assert [row["err_control_L2"] for row in rec.rows] == [0.0, 0.0]
    assert rec.slopes == {} and rec.checks == {"truncation_decay": False}
    assert rec.extras["fit_rows"] == 0 and "positive control error" in rec.extras["unfitted"]
    # and the command line says why
    code = main(["truncation", "--n", "1", "--dofs", "256", "--truncation-Y", "1,1.2",
                 "--out", str(tmp_path / "t")])
    out = capsys.readouterr().out
    assert code == 2 and "truncation_decay: FAIL" in out
    assert f"unfitted = {rec.extras['unfitted']}" in out


def test_truncation_requires_unit_height():
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256,))
    with pytest.raises(ConfigurationError):
        run_truncation_study(cfg, (0.5, 1.0))


def test_truncation_refuses_the_variational_scheme():
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256,), scheme="variational")
    with pytest.raises(ConfigurationError, match="fully discrete"):
        run_truncation_study(cfg, (1.0, 1.2))


@pytest.mark.parametrize("heights", [(1.0,), (1.0, 1.0)], ids=["one", "repeated"])
def test_truncation_refuses_fewer_than_two_distinct_heights(heights):
    # one height fits no decay slope
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256,))
    with pytest.raises(ConfigurationError, match="two distinct heights"):
        run_truncation_study(cfg, heights)


def test_compare_refinement_structure():
    cfg = StudyConfig(s_values=(0.2,), n=1, dof_targets=(1024,))
    rec = run_compare_refinement(cfg)
    assert [row["mode"] for row in rec.rows] == ["uniform", "anisotropic"]
    assert rec.rows[0]["cells"] == rec.rows[1]["cells"]
    ratio = rec.extras["control_error_ratio_an_over_un"]
    assert ratio == pytest.approx(
        rec.rows[1]["err_control_L2"] / rec.rows[0]["err_control_L2"]
    )


def test_compare_refinement_runs_the_variational_scheme(monkeypatch):
    meshes = []

    def counted(problem, mesh, **kw):
        meshes.append(mesh.n_cells)
        return solve(problem, mesh, **kw)

    solve = study.solve_variational
    monkeypatch.setattr(study, "solve_variational", counted)
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256,), scheme="variational")
    rec = run_compare_refinement(cfg)
    assert rec.scheme == "variational" and len(meshes) == 2
    assert [row["cells"] for row in rec.rows] == meshes


def test_adjoint_trace_converges_to_closed_form():
    mp = build_manufactured(0.5, 1)
    problem = mp.problem()
    from fracopt import l2_trace_error, solve_fully_discrete

    errs = []
    for N in (12, 24):
        Y = choose_truncation(0.5, first_eigenvalue(1), N * N, 1)
        mesh = TensorMesh(BasePartition(1, N), GradedPartition(N, 3.1, Y))
        _, _, P, _ = solve_fully_discrete(problem, mesh)
        errs.append(l2_trace_error(P.trace(), mp.p_exact))
    assert errs[1] < errs[0]
    assert errs[1] <= 0.05


def test_energy_surrogate_rate_matches_energy_norm():
    # the duality-identity error decays at the energy rate 1/(n+1)
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(256, 1024, 4096))
    rec = run_rate_study(cfg)[0]
    assert rec.slopes["err_state_Hs"] == pytest.approx(-0.5, abs=0.06)


def test_rate_study_aborts_with_partial_output(monkeypatch):
    capped = functools.partial(study.solve_fully_discrete, max_iterations=1)
    monkeypatch.setattr(study, "solve_fully_discrete", capped)
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(64, 256))
    rec = run_rate_study(cfg)[0]
    assert "aborted_at_target" in rec.extras
    assert len(rec.rows) < 2


def test_rate_checks_make_no_n2_band_claims_for_n1():
    cfg = StudyConfig(s_values=(0.5,), n=1, gamma=1.0, dof_targets=(64, 256))
    rec = run_rate_study(cfg)[0]
    assert "control_slope_band" not in rec.checks
    assert "state_l2_slope_band" not in rec.checks


def test_study_config_validation():
    with pytest.raises(ConfigurationError):
        StudyConfig(dof_targets=(100, 100))
    with pytest.raises(ConfigurationError):
        StudyConfig(scheme="newton")


def test_study_config_refuses_a_repeated_order():
    # a repeated order solves its sweep again and writes an equal record
    with pytest.raises(ConfigurationError, match="must not repeat an order, got 0.5, 0.2, 0.5"):
        StudyConfig(s_values=(0.5, 0.2, 0.5), n=1, dof_targets=(64,))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _tiny_records():
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(64, 256), tol=1e-7)
    return run_rate_study(cfg), cfg


def test_emit_report_files(tmp_path):
    records, cfg = _tiny_records()
    csv_path, json_path = emit_report(records, str(tmp_path / "study"), cfg)
    assert os.path.exists(csv_path) and os.path.exists(json_path)
    with open(csv_path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0].startswith("study,s,n,mode,scheme,gamma,Y,cells,dofs")
    assert len(lines) == 1 + 2  # header + one row per mesh
    with open(json_path) as fh:
        summary = json.load(fh)
    assert summary["config"]["s_values"] == [0.5]
    assert summary["records"][0]["slopes"]
    assert "all_checks_passed" in summary


def test_emit_report_deterministic(tmp_path):
    cfg = StudyConfig(s_values=(0.4,), n=1, dof_targets=(64, 256), seed=7)
    rec1 = run_oracle_check(cfg)
    rec2 = run_oracle_check(cfg)
    p1, _ = emit_report(rec1, str(tmp_path / "a"), cfg)
    p2, _ = emit_report(rec2, str(tmp_path / "b"), cfg)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_emit_report_bad_path():
    records, cfg = _tiny_records()
    with pytest.raises(OSError, match="no/such/dir"):
        emit_report(records, "/no/such/dir/study", cfg)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_control_rates_smoke(tmp_path, capsys):
    out = str(tmp_path / "cr")
    rc = main(["control-rates", "--s", "0.5", "--n", "1", "--dofs", "64,256",
               "--tol", "1e-7", "--out", out])
    assert rc == 0
    assert os.path.exists(out + ".csv") and os.path.exists(out + ".json")
    text = capsys.readouterr().out
    assert "err_control_L2" in text and "wrote" in text


def test_cli_oracle_check_writes_even_when_flags_fail(tmp_path):
    out = str(tmp_path / "oc")
    rc = main(["oracle-check", "--s", "0.5", "--n", "1", "--dofs", "256,1024", "--out", out])
    assert rc in (0, 2)
    assert os.path.exists(out + ".csv")


def test_cli_verbose_logs_assembly(tmp_path, caplog):
    logger = logging.getLogger("fracopt")
    argv = ["oracle-check", "--s", "0.5", "--n", "1", "--dofs", "256", "--out",
            str(tmp_path / "v")]
    try:
        main(argv)
        assert not [r for r in caplog.records if r.name == "fracopt"]
        main(argv + ["--verbose"])
    finally:
        logger.setLevel(logging.NOTSET)
    lines = [r.getMessage() for r in caplog.records if r.name == "fracopt"]
    assert lines and all(r.levelno == logging.DEBUG for r in caplog.records
                         if r.name == "fracopt")
    assert "free dofs" in lines[0] and "|K|_1" in lines[0]
    assert "profile backward error" in lines[0]
    # the second run meets the first run's mesh and order, and says it reused the assembly
    assert "reused the last assembly" in lines[0]


def test_cli_verbose_logs_optimizer_runs(tmp_path, caplog):
    argv = ["control-rates", "--s", "0.5", "--n", "1", "--dofs", "64", "--scheme",
            "variational", "--out", str(tmp_path / "v"), "--verbose"]
    try:
        main(argv)
    finally:
        logging.getLogger("fracopt").setLevel(logging.NOTSET)
    lines = [r.getMessage() for r in caplog.records if r.name == "fracopt"]
    assert "profile backward error" in lines[0]
    run = [line for line in lines if line.startswith("variational:")]
    assert len(run) == 1
    assert "iterations" in run[0] and "solves" in run[0] and "certified residuals" in run[0]


@pytest.mark.parametrize("argv, band", [
    (["oracle-check", "--s", "0.5", "--n", "2", "--dofs", "3000"], "oracle_slope_band"),
    (["control-rates", "--scheme", "variational", "--s", "0.5", "--n", "1", "--dofs", "256"],
     "variational_slope_band"),
])
def test_cli_single_target_makes_no_slope_check(argv, band, tmp_path, capsys):
    # one mesh fits no slope, so there is no band to pass or fail
    rc = main(argv + ["--out", str(tmp_path / "one")])
    text = capsys.readouterr().out
    assert rc == 0
    assert band not in text and "FAIL" not in text
    with open(str(tmp_path / "one") + ".json") as fh:
        record = json.load(fh)["records"][0]
    assert record["checks"] == {} and len(record["rows"]) == 1


def test_aborted_single_target_sweep_fails_its_band(monkeypatch):
    capped = functools.partial(study.solve_variational, max_iterations=1)
    monkeypatch.setattr(study, "solve_variational", capped)
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(64,), scheme="variational")
    rec = run_rate_study(cfg)[0]
    assert rec.extras["aborted_at_target"] == 64
    assert rec.checks == {"variational_slope_band": False}


def test_cli_aborted_n1_fully_discrete_sweep_exits_2(monkeypatch, tmp_path, capsys):
    # n=1 fully discrete has no slope band; the abort fails a check of its own
    capped = functools.partial(study.solve_fully_discrete, max_iterations=1)
    monkeypatch.setattr(study, "solve_fully_discrete", capped)
    out = str(tmp_path / "ab")
    rc = main(["control-rates", "--s", "0.5", "--n", "1", "--dofs", "64,256", "--out", out])
    assert rc == 2
    assert "converged: FAIL" in capsys.readouterr().out
    with open(out + ".json") as fh:
        record = json.load(fh)["records"][0]
    assert record["rows"] == [] and record["checks"] == {"converged": False}


def test_cli_prints_the_target_a_sweep_aborted_at(monkeypatch, tmp_path, capsys):
    # an int extra is printed like a float one; the second row does not converge
    def capped_at_finest(problem, mesh, **kw):
        if mesh.n_cells >= 256:
            kw["max_iterations"] = 1
        return solve(problem, mesh, **kw)

    solve = study.solve_fully_discrete
    monkeypatch.setattr(study, "solve_fully_discrete", capped_at_finest)
    rc = main(["control-rates", "--s", "0.5", "--n", "1", "--dofs", "64,256", "--out",
               str(tmp_path / "ab")])
    out = capsys.readouterr().out
    assert rc == 2
    assert "    aborted_at_target = 256\n" in out and "    abort_residual = " in out


@pytest.mark.parametrize("argv, abort_key, check", [
    (["compare-refinement"], "aborted_at_target", "anisotropic_superiority"),
    (["truncation", "--truncation-Y", "1.0,1.2"], "aborted_at_Y", "truncation_decay"),
], ids=["compare", "truncation"])
def test_cli_aborted_study_fails_its_check_and_exits_2(argv, abort_key, check, monkeypatch,
                                                       tmp_path, capsys):
    capped = functools.partial(study.solve_fully_discrete, max_iterations=1)
    monkeypatch.setattr(study, "solve_fully_discrete", capped)
    out = str(tmp_path / "ab")
    rc = main(argv + ["--s", "0.5", "--n", "1", "--dofs", "256", "--out", out])
    assert rc == 2
    assert f"{check}: FAIL" in capsys.readouterr().out
    with open(out + ".json") as fh:
        record = json.load(fh)["records"][0]
    assert abort_key in record["extras"] and record["extras"]["abort_residual"] > 0.0
    assert record["checks"] == {check: False} and len(record["rows"]) < 2


def test_sweep_aborted_after_two_rows_fails_its_band(monkeypatch):
    # the two rows kept fit a slope, but the band of a sweep that stopped short fails
    def capped_at_finest(problem, mesh, **kw):
        if mesh.n_cells >= 1024:
            kw["max_iterations"] = 1
        return solve(problem, mesh, **kw)

    solve = study.solve_variational
    monkeypatch.setattr(study, "solve_variational", capped_at_finest)
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(64, 256, 1024), scheme="variational")
    rec = run_rate_study(cfg)[0]
    assert rec.extras["aborted_at_target"] == 1024 and len(rec.rows) == 2
    assert math.isfinite(rec.slopes["err_control_L2"])
    assert rec.checks == {"variational_slope_band": False}


@pytest.mark.parametrize("run, scheme", [
    pytest.param(lambda cfg: run_rate_study(cfg)[0], scheme, id=scheme)
    for scheme in ("fully_discrete", "variational")
] + [
    pytest.param(run_compare_refinement, scheme, id=f"compare-{scheme}")
    for scheme in ("fully_discrete", "variational")
])
def test_rate_rows_carry_the_exit_certificate(run, scheme):
    cfg = StudyConfig(s_values=(0.5,), n=1, dof_targets=(64,), scheme=scheme)
    rows = run(cfg).rows
    assert rows
    for row in rows:
        cert = row["certificate"]
        assert set(cert) == {"state_residual_rel", "adjoint_residual_rel", "trace_gap",
                             "profile_backward_error"}
        assert cert["state_residual_rel"] <= 1e-10 and cert["adjoint_residual_rel"] <= 1e-10


@pytest.mark.parametrize("argv, keys", [
    (["oracle-check", "--dofs", "64,256"], {"state_residual_rel", "profile_backward_error"}),
    (["truncation", "--dofs", "256", "--truncation-Y", "1.0,1.2"],
     {"state_residual_rel", "adjoint_residual_rel", "trace_gap", "profile_backward_error"}),
], ids=["oracle", "truncation"])
def test_cli_rows_carry_the_certificate_of_their_solves(argv, keys, tmp_path):
    out = str(tmp_path / "run")
    main(argv + ["--n", "1", "--s", "0.5", "--out", out])
    with open(out + ".json") as fh:
        rows = [row for rec in json.load(fh)["records"] for row in rec["rows"]]
    assert rows
    for row in rows:
        assert set(row["certificate"]) == keys
        assert row["certificate"]["state_residual_rel"] <= 1e-10


def test_cli_truncation_n2_passes_at_its_defaults(tmp_path, capsys):
    # the default heights fit the decay at n=2 as at n=1
    rc = main(["truncation", "--n", "2", "--out", str(tmp_path / "tr")])
    assert "truncation_decay: PASS" in capsys.readouterr().out
    assert rc == 0


def test_cli_truncation_smoke(tmp_path):
    out = str(tmp_path / "tr")
    rc = main(["truncation", "--s", "0.5", "--n", "1", "--dofs", "256",
               "--truncation-Y", "1.0,1.2", "--out", out])
    assert rc in (0, 2)
    with open(out + ".csv") as fh:
        assert len(fh.read().strip().split("\n")) == 3


def test_cli_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# study setup\n"
        "s = 0.5\n"
        "n = 1\n"
        "dofs = 64,256\n"
        "tol = 1e-7\n"
        f"out = {tmp_path / 'fromcfg'}\n"
    )
    rc = main(["control-rates", "--config", str(cfgfile)])
    assert rc == 0
    assert os.path.exists(str(tmp_path / "fromcfg") + ".csv")
    with open(str(tmp_path / "fromcfg") + ".json") as fh:
        config = json.load(fh)["config"]
    assert (config["s_values"], config["n"], config["dof_targets"], config["tol"]) == (
        [0.5], 1, [64, 256], 1e-7)


def test_cli_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"s=0.5\nn=1\ndofs=64,256\ntol=1e-7\nout={tmp_path / 'a'}\n")
    rc = main(["control-rates", "--config", str(cfgfile), "--out", str(tmp_path / "b")])
    assert rc == 0
    assert os.path.exists(str(tmp_path / "b") + ".csv")
    assert not os.path.exists(str(tmp_path / "a") + ".csv")


def test_config_file_parsing(tmp_path):
    cfgfile = tmp_path / "x.cfg"
    cfgfile.write_text("a = 1\n# comment\nb=two words\ntruncation-Y = 1,2\n")
    cfg = read_config_file(str(cfgfile))
    assert cfg == {"a": "1", "b": "two words", "truncation_Y": "1,2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    with pytest.raises(ValueError):
        read_config_file(str(bad))


def run_refused(argv, tmp_path, capsys):
    """stderr of a CLI run that must refuse its input: one line, exit status 2, no report."""
    with pytest.raises(SystemExit) as refused:
        main(argv + ([] if "--out" in argv else ["--out", str(tmp_path / "refused")]))
    assert refused.value.code == 2
    assert not (tmp_path / "refused.csv").exists()
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("argv, message", [
    (["control-rates", "--n", "1", "--dofs", "256,64"], "dof_targets must be strictly increasing"),
    (["control-rates", "--n", "1", "--s", ","], "s_values and dof_targets must not be empty"),
    (["truncation", "--n", "1", "--dofs", "256", "--truncation-Y", "1.0"],
     "two distinct heights"),
    (["truncation", "--n", "1", "--dofs", "256", "--scheme", "variational"], "fully discrete"),
    (["truncation", "--n", "1", "--dofs", "256", "--s", "0.2,0.5"],
     "truncation study runs one fractional order, got 2: 0.2, 0.5"),
    (["compare-refinement", "--n", "1", "--dofs", "256", "--s", "0.2,0.5"],
     "compare-refinement runs one fractional order, got 2: 0.2, 0.5"),
    # two targets on one mesh write two equal rows, and a fit through them has no slope
    (["oracle-check", "--n", "1", "--dofs", "256,260"],
     "256 and 260 give 16 and 16 cells per side"),
    (["control-rates", "--n", "1", "--dofs", "256,260", "--scheme", "variational"],
     "256 and 260 give 16 and 16 cells per side"),
    (["truncation", "--n", "1", "--dofs", "256", "--truncation-Y", "1,1,2"], "none repeated"),
    (["control-rates", "--n", "1", "--dofs", "256", "--tol", "nan"], "tol must be >= 0"),
    (["control-rates", "--n", "1", "--dofs", "256", "--tol", "-1"], "tol must be >= 0"),
    (["control-rates", "--n", "1", "--dofs", "64,256", "--s", "0.5,0.5"],
     "s_values must not repeat an order, got 0.5, 0.5"),
    # refused before the study runs, not by a traceback after it
    (["oracle-check", "--n", "1", "--dofs", "64,256", "--out", "/nonexistent/dir/x"],
     "--out /nonexistent/dir/x: its directory is missing or read-only"),
    # these two ended in a ZeroDivisionError traceback in default_grading
    (["oracle-check", "--n", "1", "--dofs", "64,256", "--s", "0"],
     "fractional order s must be in (0,1), got 0.0"),
    (["compare-refinement", "--n", "1", "--dofs", "256", "--s", "0"],
     "fractional order s must be in (0,1), got 0.0"),
], ids=["dofs", "no-s", "one-height", "scheme", "truncation-two-orders", "compare-two-orders",
        "oracle-one-mesh", "rates-one-mesh", "repeated-height", "tol-nan", "tol-negative",
        "repeated-order", "unwritable-out", "oracle-order-0", "compare-order-0"])
def test_cli_reports_invalid_input_in_one_line(argv, message, tmp_path, capsys):
    err = run_refused(argv, tmp_path, capsys)
    assert err.startswith("fracopt: error: ") and message in err


def test_cli_refuses_a_height_list_outside_the_truncation_study(tmp_path, capsys):
    # a rate sweep runs at one height; a list used to be dropped without a word
    err = run_refused(["control-rates", "--n", "1", "--dofs", "256,1024",
                       "--truncation-Y", "1.0,2.0"], tmp_path, capsys)
    assert "one height" in err


@pytest.mark.parametrize("text, message", [
    ("n = 1\ndof = 64,256\nschme = variational\n", "unknown key dof, schme"),
    ("n = 1\nmode = uniform\n", "unknown key mode"),
    ("n = 1\nnot a pair\n", "expected key=value"),
    ("n = 1\ndofs = 64,256\nn = 2\n", "run.cfg:3: key 'n' repeats line 1"),
], ids=["typos", "mode", "no-pair", "repeated-key"])
def test_cli_refuses_a_bad_config_file(text, message, tmp_path, capsys):
    # a mistyped key used to be dropped, and the run went on with the defaults
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(text)
    err = run_refused(["control-rates", "--config", str(cfgfile)], tmp_path, capsys)
    assert err.startswith("fracopt: error: ") and message in err


def test_cli_refuses_a_missing_config_file(tmp_path, capsys):
    # it used to end in a FileNotFoundError traceback with exit status 1
    missing = tmp_path / "nosuch.cfg"
    err = run_refused(["control-rates", "--config", str(missing), "--n", "1", "--dofs", "64"],
                      tmp_path, capsys)
    assert err.startswith("fracopt: error: cannot read config file") and str(missing) in err


@pytest.mark.parametrize("flags, mode", [(["--gamma", "1"], "uniform"), ([], "anisotropic")],
                         ids=["gamma-1", "default"])
def test_cli_mode_label_follows_the_grading(flags, mode, tmp_path):
    # gamma = 1 builds the uniform mesh: its rows say so, and it is not warned of as a
    # graded mesh with gamma <= 3/(2s)
    out = str(tmp_path / "g")
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="grading gamma")
        rc = main(["control-rates", "--s", "0.3", "--n", "1", "--dofs", "64,256",
                   "--out", out] + flags)
    assert rc == 0
    with open(out + ".csv") as fh:
        header, *rows = [line.split(",") for line in fh.read().split()]
    assert [row[header.index("mode")] for row in rows] == [mode, mode]


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["bogus"])
