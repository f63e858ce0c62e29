"""Workloads of the fracopt benchmark and the checked run of one problem.

A problem is one control or state problem on one mesh, taken from mesh
build to a checked result; it only calls fracopt's public functions.  A
workload is a fixed list of problems; a pass runs the whole list in the
order the workload seed gives.  Every problem uses the optimizer tolerance
1e-8, and Y = choose_truncation(s, first_eigenvalue(n), target_max, n), so
one mesh family is shared by all targets of a sweep, as in the CLI.

Why these three workloads (README.md has the seed numbers):

* state-n2: one factorization and one solve per problem, sparse LU is
  nearly all of the time and the optimizer is idle.
* control-n2: one row of the acceptance control sweep; 8 to 18 solves and
  the certification share one factorization.
* control-n1-mu: solves cost milliseconds, so optimizer iterations and
  backtracks set the time; small mu stresses both schemes.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from fracopt import control, fem, manufactured, meshes, spectral, study

TOL = 1e-8
# fully discrete certification: sampled VI values may dip below 0 by roundoff
VI_VIOLATION_FLOOR = -1e-7
# State-only problems must reproduce the seed traces to about 1e-10 relative;
# the traces have unit-order norms, so their error functionals may move by
# no more than this.
STATE_ATOL = 1e-9
# Two controls that both meet the fixed-point tolerance differ by O(tol/mu),
# and so do their error functionals.  Re-solving each control-n1-mu problem
# to a 3-10x tighter tolerance moves every error functional by at most
# 2.6e-5 of its value (fully discrete, mu=1e-3), so this relative tolerance
# per error functional leaves a margin of about 40.
CONTROL_RTOL = 1e-3
WARMUP_TARGET = 64
# Reference values are recorded with this iteration cap, so that a problem
# the timed runs stop at 200 iterations (variational, mu=1e-3) has values
# to meet once a later solver converges within them.
REFERENCE_MAX_ITERATIONS = 5000


@dataclass(frozen=True)
class Problem:
    """One problem: `kind` is "oracle" (run_oracle_check), "rate"
    (run_rate_study) or "control" (a solver called on a manufactured
    problem with regularization `mu`)."""

    id: str
    kind: str
    n: int
    s: float
    target: int
    target_max: int
    scheme: str = "fully_discrete"
    mu: float = 1.0
    tol: float = TOL
    max_iterations: int = 200

    @property
    def truncation_Y(self) -> float:
        return meshes.choose_truncation(self.s, meshes.first_eigenvalue(self.n),
                                        self.target_max, self.n)

    def tolerance(self, reference: float) -> float:
        """How far an error functional may be from its reference value."""
        if self.kind == "oracle":
            return STATE_ATOL
        return CONTROL_RTOL * abs(reference)

    def config(self, seed: int) -> study.StudyConfig:
        return study.StudyConfig(s_values=(self.s,), n=self.n, dof_targets=(self.target,),
                                 truncation_Y=self.truncation_Y, tol=self.tol,
                                 scheme=self.scheme, seed=seed)


WORKLOADS: Dict[str, List[Problem]] = {
    "state-n2": [Problem(f"oracle-n2-s{s}", "oracle", 2, s, 25_000, 50_000)
                 for s in (0.2, 0.5, 0.8)],
    "control-n2": [Problem(f"rate-n2-s{s}", "rate", 2, s, 10_000, 50_000)
                   for s in (0.2, 0.5, 0.8)],
    "control-n1-mu": [Problem(f"{scheme}-n1-mu{mu:g}", "control", 1, 0.5, 16_384, 16_384,
                              scheme=scheme, mu=mu)
                      for mu in (1e-1, 1e-2, 1e-3)
                      for scheme in ("fully_discrete", "variational")],
}


def pass_order(problems: List[Problem], seed: int) -> List[Problem]:
    """The order of one pass, fixed by the workload seed."""
    return random.Random(seed).sample(problems, len(problems))


def warmup_problems(problems: List[Problem]) -> List[Problem]:
    """The same problems on a tiny mesh, to load every code path once."""
    return [dataclasses.replace(p, target=WARMUP_TARGET) for p in problems]


class ProblemFailed(Exception):
    """The problem ran but did not produce a solution within its contract."""


def _solve_oracle(p: Problem, seed: int, report_prefix: str) -> dict:
    cfg = p.config(seed)
    records = study.run_oracle_check(cfg)
    study.emit_report(records, report_prefix, cfg)
    row = records[0].rows[0]
    return {key: row[key] for key in ("dofs", "err_state_L2", "err_extension_nodes")}


def _solve_rate(p: Problem, seed: int, report_prefix: str) -> dict:
    cfg = p.config(seed)
    records = study.run_rate_study(cfg)
    study.emit_report(records, report_prefix, cfg)
    rec = records[0]
    if "aborted_at_target" in rec.extras:
        raise ProblemFailed(f"row dropped at target {rec.extras['aborted_at_target']}, "
                            f"residual {rec.extras['abort_residual']:.3e}")
    row = rec.rows[0]
    if row["vi_violation_min"] < VI_VIOLATION_FLOOR:
        raise ProblemFailed(f"vi_violation_min {row['vi_violation_min']:.3e}")
    return {key: row[key] for key in ("dofs", "err_control_L2", "err_state_Hs", "err_state_L2")}


def _solve_control(p: Problem, seed: int, report_prefix: str) -> dict:
    mesh = study._build_mesh(p.n, p.target, meshes.default_grading(p.s), p.truncation_Y, p.s,
                             warn_grading=True)
    mp = manufactured.build_manufactured(p.s, p.n, mu=p.mu)
    problem = mp.problem()
    rp = control.ReducedProblem(problem, mesh)
    if p.scheme == "fully_discrete":
        z, V, P, rep = control.solve_fully_discrete(problem, mesh, tol=p.tol,
                                                    max_iterations=p.max_iterations, rp=rp)
    else:
        z, V, rep = control.solve_variational(problem, mesh, tol=p.tol,
                                              max_iterations=p.max_iterations, rp=rp)
    if not rep.converged:
        raise ProblemFailed(f"not converged after {rep.iterations} iterations, "
                            f"residual {rep.vi_residual:.3e}")
    if p.scheme == "fully_discrete":
        cert = control.optimality_residuals(z, V, P, problem, mesh, rp=rp, seed=seed)
        if cert.vi_violation_min < VI_VIOLATION_FLOOR:
            raise ProblemFailed(f"vi_violation_min {cert.vi_violation_min:.3e}")
        err_control = study._control_error_fully_discrete(z, mp.z_exact, mesh.base)
    else:
        err_control = study._control_error_evaluator(z, mp.z_exact, mesh.base)
    d_s = spectral.FractionalConstants.from_order(p.s).d_s

    def exact_data(*x):
        return mp.lam_s * mp.u_exact(*x)

    return {
        "dofs": mesh.n_free,
        "err_control_L2": err_control,
        "err_state_Hs": fem.energy_error_galerkin(V, exact_data, mp.u_exact, d_s),
        "err_state_L2": fem.l2_trace_error(V.trace(), mp.u_exact),
    }


_SOLVERS = {"oracle": _solve_oracle, "rate": _solve_rate, "control": _solve_control}

# Errors a bad problem may raise; the benchmark counts them and goes on.
EXPECTED_ERRORS = (ProblemFailed, fem.SolverError, spectral.ConfigurationError,
                   fem.InconsistencyError)


def solve(p: Problem, seed: int, report_prefix: str) -> dict:
    """Run one problem; raises one of EXPECTED_ERRORS if it fails."""
    return _SOLVERS[p.kind](p, seed, report_prefix)


def check(p: Problem, outputs: dict, reference: Optional[dict]) -> List[str]:
    """Mismatches between a solved problem's outputs and its seed reference."""
    if reference is None:
        return [f"no reference values for {p.id}"]
    bad = []
    for key, want in reference.items():
        got = outputs.get(key)
        if got is None:
            bad.append(f"{key} missing")
        elif key == "dofs":
            if got != want:
                bad.append(f"dofs {got} != {want}")
        elif not abs(got - want) <= p.tolerance(want):
            bad.append(f"{key} {got!r} differs from {want!r} "
                       f"by more than {p.tolerance(want):.1e}")
    return bad
