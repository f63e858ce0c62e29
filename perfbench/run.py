"""fracopt benchmark: time to a checked solution, end to end and per layer.

    python3 perfbench/run.py --workload state-n2 --seed 1 --seconds 60 --trace 0

Runs one workload in this process as a closed loop: passes over the
workload's problems, one after another, until the next pass would take
their total time past --seconds (at least one pass).  setup_s is sampled
in fresh processes before the first pass and between problems.  Every
problem is checked against the seed reference values in reference.json.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes (at least one of each)
and reports the per-layer metrics.  The last line of stdout is the JSON
result; the full record, with provenance and, for traced runs, every
span, goes to .bench_out/ in the checkout.

`--record-reference` runs one pass, with a larger iteration cap, and
stores its outputs as the reference values of the workload's problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("state-n2", "control-n2", "control-n1-mu")
# One BLAS/OpenMP thread: SuperLU factors on one core anyway, and a single
# thread keeps timings steady on a small shared machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One setup_s sample before the first pass and one per SETUP_INTERVAL_S of
# passes, taken between problems: machine speed drifts over tens of
# seconds, and samples spread over the whole run follow it as sweep_s does.
SETUP_INTERVAL_S = 5.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit; the parent times this to measure setup_s")
    ap.add_argument("--record-reference", action="store_true")
    return ap.parse_args(argv)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def setup(workload: str, seed: int):
    """Everything before the first timed problem: imports, inputs, warm-up."""
    import workloads

    problems = workloads.WORKLOADS[workload]
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        for p in workloads.warmup_problems(problems):
            try:
                workloads.solve(p, seed, os.path.join(tmp, p.id))
            except workloads.EXPECTED_ERRORS:
                pass  # warm-up only loads code paths; failures are counted later
    return workloads.pass_order(problems, seed), reference


class SetupSampler:
    """setup_s samples: fresh processes that only set up, each timed from
    just before it is started until it reports the end of its setup, so
    that interpreter shutdown is not counted.  perf_counter is
    CLOCK_MONOTONIC, one clock for all processes of the machine."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-only"]
        self.times: list = []

    def catch_up(self, measured_s: float) -> None:
        """Sample until there is one sample per SETUP_INTERVAL_S measured, plus one."""
        while len(self.times) < 1 + measured_s / SETUP_INTERVAL_S:
            t0 = time.perf_counter()
            out = subprocess.run(self.cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
            self.times.append(float(out.split()[-1]) - t0)


def run_problem(p, seed: int, reference, workdir: str, tracer) -> dict:
    import workloads

    if tracer is not None:
        tracer.problem = p.id
    record = {"id": p.id, "error": None, "mismatches": [], "outputs": None}
    t0 = time.perf_counter()
    with tracer.span("bench.problem") if tracer is not None else nullcontext():
        try:
            record["outputs"] = workloads.solve(p, seed, os.path.join(workdir, p.id))
            record["mismatches"] = workloads.check(p, record["outputs"], reference.get(p.id))
        except workloads.EXPECTED_ERRORS as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
    record["seconds"] = time.perf_counter() - t0
    return record


def run_pass(order, seed: int, reference: dict, tracer,
             sampler: SetupSampler | None = None, measured_s: float = 0.0) -> dict:
    """One pass; setup samples taken between its problems are not part of its
    time.  `measured_s` is the time of the passes before it."""
    paused = 0.0
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir, \
            tracer.installed() if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        with tracer.span("bench.pass") if tracer is not None else nullcontext():
            records = []
            for p in order:
                records.append(run_problem(p, seed, reference, workdir, tracer))
                if sampler is not None:
                    t = time.perf_counter()
                    sampler.catch_up(measured_s + t - t0 - paused)
                    paused += time.perf_counter() - t
        seconds = time.perf_counter() - t0 - paused
    return {"traced": tracer is not None, "seconds": seconds, "problems": records}


def measure(order, seed: int, seconds: float, reference: dict, tracer,
            sampler: SetupSampler | None = None) -> list:
    """Closed loop of passes, until the next one would take their total time
    past `seconds`; with a tracer, passes alternate untraced/traced.  Setup
    samples are taken between problems and do not count against `seconds`."""
    passes = []
    measured = 0.0
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(order, seed, reference, tracer if traced else None,
                               sampler, measured))
        measured += passes[-1]["seconds"]
        both_kinds = tracer is None or len(passes) >= 2
        if both_kinds and measured + passes[-1]["seconds"] > seconds:
            return passes


def tail(values: list):
    """Nearest-rank percentile q = max(90, 100 (n-10)/n): the highest one with
    ten samples beyond it once n >= 100, p90 below that (with a few problems
    per pass, p90 is the slowest one).  Returns (value, q, samples beyond it)."""
    n = len(values)
    q = max(90.0, 100.0 * (n - 10) / n)
    rank = max(1, math.ceil(round(q * n / 100.0, 9)))
    return sorted(values)[rank - 1], q, n - rank


def end_to_end_metrics(passes: list, setup_times: list) -> dict:
    """Problem-time statistics are taken per pass, over the workload's fixed
    problem list, and their median over passes is reported.  Pooling the
    passes instead would put the median of an even list on the fastest or
    slowest sample of a problem, which is what machine noise moves most.
    sweep_s is the mean pass time: drift in machine speed over a run
    averages out better than in a median of a few passes."""
    untraced = [ps for ps in passes if not ps["traced"]]
    per_pass = [[r["seconds"] for r in ps["problems"]] for ps in untraced]
    records = [r for ps in passes for r in ps["problems"]]
    failed = sum(r["error"] is not None for r in records)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "sweep_s": (statistics.mean(ps["seconds"] for ps in untraced), "s"),
        "problem_s.p50": (statistics.median(statistics.median(t) for t in per_pass), "s"),
        "problem_s.tail": (statistics.median(tail(t)[0] for t in per_pass), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "solved_ratio": (1.0 - failed / len(records), "1"),
    }


def per_layer_metrics(passes: list, spans: list) -> dict:
    from tracing import self_times

    traced = [ps for ps in passes if ps["traced"]]
    untraced = [ps for ps in passes if not ps["traced"]]
    n_problems = sum(len(ps["problems"]) for ps in traced)
    own = self_times(spans)

    def total(names, values=None):
        values = values if values is not None else [s.duration for s in spans]
        return sum(v for s, v in zip(spans, values) if s.name in names or s.layer in names)

    def per_problem(names, values=None):
        return total(names, values) / n_problems

    solves = [s for s in spans if s.name == "fem.solve"]
    opt = [s.counts for s in spans if s.name == "control.optimize"]
    iterations = sum(c["iterations"] for c in opt)
    state_solves = sum(c["state_solves"] for c in opt)
    useful = sum(2 * (c["iterations"] + 1) for c in opt)
    traced_sweep = statistics.mean(s.duration for s in spans if s.name == "bench.pass")
    return {
        "fem.factor_s": (per_problem({"fem.factor"}), "s"),
        "fem.solve_s": (total({"fem.solve"}) / len(solves) if solves else 0.0, "s"),
        "fem.solve_count": (len(solves) / n_problems, "count"),
        "fem.assemble_s": (per_problem({"fem.assemble"}), "s"),
        "fem.error_s": (per_problem({"fem.error"}), "s"),
        "fem.self_s": (per_problem({"fem"}, own), "s"),
        "control.optimize_s": (per_problem({"control.optimize"}), "s"),
        "control.self_s": (per_problem({"control"}, own), "s"),
        "control.certify_s": (per_problem({"control.certify"}), "s"),
        "control.iterations": (iterations / n_problems, "count"),
        "control.backtracks": ((state_solves - useful) / n_problems, "count"),
        "control.useful_solve_ratio": (useful / state_solves if state_solves else 0.0, "1"),
        "spectral.oracle_s": (per_problem({"spectral"}, own), "s"),
        "meshes.build_s": (per_problem({"meshes"}, own), "s"),
        "manufactured.build_s": (per_problem({"manufactured"}, own), "s"),
        "study.report_s": (per_problem({"study.report"}), "s"),
        "study.self_s": (per_problem({"study"}, own), "s"),
        "bench.self_s": (per_problem({"bench"}, own), "s"),
        "trace.sweep_s": (traced_sweep, "s"),
        "trace.overhead_ratio": (
            traced_sweep / statistics.mean(ps["seconds"] for ps in untraced), "1"),
    }


def record_reference(workload: str, one_pass: dict) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for r in one_pass["problems"]:
        if r["error"] is None:
            reference[r["id"]] = r["outputs"]
        else:
            print(f"{r['id']}: no reference recorded: {r['error']}")
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"recorded {workload} reference values in {REFERENCE}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()  # before numpy is imported, here or in a setup process
    src = ROOT / "src"
    if not (src / "fracopt" / "__init__.py").is_file():
        print(f"error: fracopt sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)

    if args.setup_only:
        setup(args.workload, args.seed)
        print(repr(time.perf_counter()))
        return 0
    sampler = None if args.trace or args.record_reference \
        else SetupSampler(args.workload, args.seed)
    if sampler is not None:
        sampler.catch_up(0.0)
    order, reference = setup(args.workload, args.seed)

    from provenance import provenance
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if args.record_reference:
        import workloads
        order = [dataclasses.replace(p, max_iterations=workloads.REFERENCE_MAX_ITERATIONS)
                 for p in order]
        record_reference(args.workload, run_pass(order, args.seed, reference, None))
        return 0
    passes = measure(order, args.seed, args.seconds, reference, tracer, sampler)

    records = [r for ps in passes for r in ps["problems"]]
    metrics = (per_layer_metrics(passes, tracer.spans) if tracer is not None
               else end_to_end_metrics(passes, sampler.times))
    _, q, beyond = tail([r["seconds"] for r in passes[0]["problems"]])
    result = {
        "correct": all(not r["mismatches"] for r in records),
        "attempted": len(records),
        "failed": sum(r["error"] is not None for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                provenance=provenance(ROOT, args.seed, THREAD_VARS),
                problem_s_tail={"percentile": q, "beyond": beyond,
                                "untraced_passes": sum(not ps["traced"] for ps in passes)},
                setup_samples_s=sampler.times if sampler is not None else [],
                problems_per_pass=len(order),
                passes=passes)
    Path(f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracer is not None:
        Path(f"{stem}-spans.json").write_text(
            json.dumps([s.to_list() for s in tracer.spans]) + "\n")

    for r in records:
        if r["error"] or r["mismatches"]:
            print(f"{r['id']}: {r['error'] or '; '.join(r['mismatches'])}")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':28s} {result['failed']}/{result['attempted']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
