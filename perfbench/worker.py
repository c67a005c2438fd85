"""One workload in a fresh process: set-up, warm-up, the timed closed loop,
the correctness gate and, with ``--trace 1``, a traced pass and the layer
microbench.

``run.py`` starts this script with ``PYTHONPATH`` set to the checkout's
``src`` and every BLAS/OpenMP pool pinned to one thread, and reads the JSON
it writes to ``--result``.  With ``--setup-only`` it stops after set-up.
"""

import time

T0 = time.perf_counter()    # set-up is timed from here: imports count

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass

import numpy as np
import scipy

import oracles
import workloads
from refclock import RefClock
from workloads import Job

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
US_PER_CALL = ("dynamics.hamilton_rhs", "dynamics.total_energy", "dynamics.noether_charges",
               "kinetics.inverse_legendre", "kinetics.kinetic_phi_gradient",
               "kinetics.kinetic_hamiltonian", "potentials.potential_gradient",
               "potentials.total_potential", "matcore.two_polar_decompose",
               "scenario.parse_scenario", "qdesk.build_hamiltonian_1d", "qdesk.solve_spectrum")
SECONDS_PER_PASS = {"runner.write_trajectory_csv_s": "runner.write_trajectory_csv",
                    "runner.write_charges_csv_s": "runner.write_charges_csv",
                    "measures.measure_check_report_s": "measures.measure_check_report",
                    **{f"checks.{s}_s": f"checks.{s}_suite" for s in workloads.SUITES}}


@dataclass
class Execution:
    job: Job
    phase: str          # warmup | timed | traced
    rc: int
    start: float        # perf_counter at the call
    seconds: float      # wall time of the call, reference samples taken out
    stdout: str
    stderr: str
    steps: int = 1      # integration steps of a run job; 1 for other commands
    ref_s: float = 0.0  # median reference-kernel time around a timed execution


class Gate:
    """Validates every execution and counts the failed ones."""

    def __init__(self, scenarios: dict):
        self.scenarios = scenarios
        self.digests: dict = {}
        self.attempted = 0
        self.failed: dict = {}          # id of a failed execution -> its problems
        self.energy_drift_max = 0.0

    def fail(self, ex: Execution, problem: str) -> None:
        self.failed.setdefault(id(ex), []).append(f"{ex.phase} {ex.job.key}: {problem}")

    def check(self, ex: Execution) -> None:
        self.attempted += 1
        if ex.rc != 0:
            tail = ex.stderr.strip().splitlines()[-1:]
            self.fail(ex, f"exit code {ex.rc}" + (f": {tail[0]}" if tail else ""))
        try:
            report = json.loads(ex.stdout)
        except json.JSONDecodeError as exc:
            if ex.rc == 0:
                self.fail(ex, f"stdout is not a JSON report: {exc}")
            return
        kind = ex.job.kind
        digest = "sha256:" + hashlib.sha256(ex.stdout.encode()).hexdigest()
        if kind == "run":
            ex.steps = int(report["steps"])
            digest = report["determinism_hash"]
            drift = float(report["drifts"]["energy"])
            self.energy_drift_max = max(self.energy_drift_max, drift)
            if report["aborted"]:
                self.fail(ex, f"aborted: {report['abort_reason']}")
            if drift > workloads.DRIFT_TOL:
                self.fail(ex, f"energy drift {drift:.3e} > {workloads.DRIFT_TOL}")
        elif kind == "check" and not report["passed"]:
            bad = [c["name"] for c in report["checks"] if not c["passed"]]
            self.fail(ex, f"suite {report['suite']} failed: {bad}")
        elif kind == "measure-check" and (report["exponent_e"] != 1
                                          or report["max_rel_err"] > oracles.MEASURE_TOL):
            self.fail(ex, f"two-polar fit e={report['exponent_e']}, "
                          f"max_rel_err={report['max_rel_err']:.3e}")
        elif kind == "spectrum":
            err = oracles.spectrum_error(report["levels"])
            if err > oracles.SPECTRUM_TOL:
                self.fail(ex, f"harmonic levels miss k + 1/2 by {err:.3e}")
        first = self.digests.setdefault(ex.job.key, digest)
        if digest != first:
            self.fail(ex, f"output hash {digest} differs from the first run's {first}")

    def check_oracles(self, jobs: list, executions: list) -> None:
        """Geodesic and finite-difference oracles, run outside any timed phase."""
        last = {ex.job.key: ex for ex in executions if ex.phase == "timed"}
        for job in jobs:
            ex = last[job.key]
            if job.geodesic and ex.rc == 0:
                err = oracles.geodesic_error(self.scenarios[job.key],
                                             os.path.join(job.out_dir, "trajectory.csv"))
                if err > oracles.GEODESIC_TOL:
                    self.fail(ex, f"af-af geodesic missed by {err:.3e}")
        runs = [job for job in jobs if job.kind == "run"]
        if runs:
            job = runs[-1]
            err = oracles.rhs_fd_error(self.scenarios[job.key])
            if err > oracles.FD_TOL:
                self.fail(last[job.key], f"hamilton_rhs vs finite differences of H: {err:.3e}")

    def problems(self) -> list:
        return [p for ps in self.failed.values() for p in ps]


def execute(job: Job, phase: str) -> Execution:
    """One job through the CLI entry point, as a user would run it."""
    import affinekit.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = affinekit.cli.main(list(job.argv))
    except SystemExit as exc:       # argparse rejects a command line this way
        rc = exc.code if isinstance(exc.code, int) else 1
    seconds = time.perf_counter() - start
    return Execution(job, phase, rc, start, seconds, out.getvalue(), err.getvalue())


def setup(workload: str, seed: int, work: str, tiny: bool):
    import affinekit
    import affinekit.cli
    from affinekit.scenario import parse_scenario

    src = os.path.realpath(os.environ.get("PYTHONPATH", ""))
    if not os.path.realpath(affinekit.__file__).startswith(src + os.sep):
        raise RuntimeError(f"affinekit imported from {affinekit.__file__}, not from {src}")
    jobs, warmup = workloads.build(workload, seed, work, tiny)
    scenarios = {job.key: parse_scenario(job.scenario) for job in jobs + warmup
                 if job.kind == "run"}
    parser = affinekit.cli.build_parser()
    for job in jobs + warmup:
        parser.parse_args(list(job.argv))
    return jobs, warmup, scenarios, time.perf_counter() - T0


def timed_phase(jobs: list, seconds: float):
    """Closed loop with one client: whole passes back to back until ``seconds``.

    At least two passes run, so every job is rerun and its hash compared.
    The reference clock samples the machine's speed throughout; its samples
    are taken out of the job and pass times.  Returns the executions, with
    ``ref_s`` set, and the pass walls and reference samples.
    """
    executions, passes = [], []
    with RefClock() as clock:
        start = time.perf_counter()
        while len(passes) < 2 or time.perf_counter() - start < seconds:
            pass_start = time.perf_counter()
            for job in jobs:
                executions.append(execute(job, "timed"))
            passes.append((pass_start, time.perf_counter()))
    for ex in executions:
        end = ex.start + ex.seconds
        ex.seconds -= clock.paused_s(ex.start, end)
        ex.ref_s = clock.ref_s(ex.start, end)
    summary = {"pass_walls": [end - begin - clock.paused_s(begin, end)
                              for begin, end in passes],
               "ref_ms": [1e3 * d for d in clock.durations]}
    return executions, summary


def end_to_end(timed: list, phase: dict, rss_mb: float) -> tuple[dict, dict]:
    """The metrics of the timed phase.

    The gated times are in refs, each job's seconds over the median
    reference-kernel time around it (see refclock.py), which a loaded host
    stretches as much as the job.  The same figures in seconds are reported
    beside them.
    """
    n_jobs = len({ex.job.key for ex in timed})
    seconds = [ex.seconds for ex in timed]
    refs = [ex.seconds / ex.ref_s for ex in timed]
    pass_refs = [sum(refs[i:i + n_jobs]) for i in range(0, len(refs), n_jobs)]
    steps = sum(ex.steps for ex in timed)
    metrics = {
        "steps_per_ref": {"value": steps / sum(refs), "unit": "1/ref"},
        "job_ref_p50": {"value": statistics.median(refs), "unit": "ref"},
        "pass_ref_p50": {"value": statistics.median(pass_refs), "unit": "ref"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "job_ref_p75": {"value": statistics.quantiles(refs, n=4)[2], "unit": "ref"},
        "steps_per_s": {"value": steps / sum(seconds), "unit": "1/s"},
        "job_s_p50": {"value": statistics.median(seconds), "unit": "s"},
        "job_s_p75": {"value": statistics.quantiles(seconds, n=4)[2], "unit": "s"},
        "wall_s": {"value": statistics.median(phase["pass_walls"]), "unit": "s"},
        "ref_ms": {"value": statistics.median(phase["ref_ms"]), "unit": "ms"},
    }
    p75 = metrics["job_ref_p75"]["value"]
    samples = {"jobs": len(timed), "passes": len(pass_refs), "ref_samples": len(phase["ref_ms"]),
               "ref_samples_quartiles_ms": statistics.quantiles(phase["ref_ms"], n=4),
               "beyond_p75": sum(r > p75 for r in refs)}
    return metrics, samples


def traced_pass(jobs: list, gate: Gate, untraced_wall_s: float, spans_path: str) -> tuple:
    from tracing import SpanSummary, Tracer, dump

    tracer = Tracer()
    tracer.install()
    executions = []
    try:
        start = time.perf_counter()
        for idx, job in enumerate(jobs):
            tracer.job_id = idx
            executions.append(execute(job, "traced"))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    for ex in executions:
        gate.check(ex)
    spans = tracer.spans()
    dump(spans_path, tracer.names, spans, [job.key for job in jobs], start)
    summary = SpanSummary(tracer.names, spans, wall)
    steps = sum(ex.steps for ex in executions if ex.job.kind == "run")
    return summary, steps, executions, wall - untraced_wall_s


def per_layer(s, steps: int, executions: list, overhead_s: float, drift_max: float) -> dict:
    def m(value, unit):
        return {"value": value, "unit": unit}

    per_step = (lambda count: count / steps) if steps else (lambda count: 0.0)
    rhs = s.count_within("dynamics.integrate", "dynamics.hamilton_rhs")
    out = {f"{mod}.self_s": m(v, "s") for mod, v in s.module_self_s().items()}
    out["dynamics.rhs_calls_per_step"] = m(per_step(rhs), "count")
    # the fixed-point midpoint solver spends one RHS evaluation on its predictor
    out["dynamics.midpoint_iters_per_step"] = m(per_step(rhs - steps), "count")
    out["matcore.checked_det_calls_per_step"] = m(
        per_step(s.count_within("dynamics.integrate", "matcore.checked_det")), "count")
    out["dynamics.integrate_self_s"] = m(s.self_total_s("dynamics.integrate"), "s")
    out["dynamics.hamilton_rhs_self_us"] = m(s.median_us("dynamics.hamilton_rhs", True), "us")
    out["cli.main_self_us"] = m(s.median_us("cli.main", True), "us")
    for label in US_PER_CALL:
        out[f"{label}_us"] = m(s.median_us(label), "us")
    for name, label in SECONDS_PER_PASS.items():
        out[name] = m(s.total_s(label), "s")
    out["runner.csv_bytes"] = m(sum(
        os.path.getsize(os.path.join(ex.job.out_dir, f))
        for ex in executions if ex.job.kind == "run" and ex.rc == 0
        for f in ("trajectory.csv", "charges.csv")), "bytes")
    out["dynamics.energy_drift_max"] = m(drift_max, "rel")
    out["trace.wall_s"] = m(s.wall_s, "s")
    out["trace.overhead_s"] = m(overhead_s, "s")
    out["trace.spans"] = m(len(s.dur), "count")
    out["bench.self_s"] = m(s.bench_self_s, "s")
    return out


def meta(workload: str, seed: int) -> dict:
    return {
        "workload": workload, "seed": seed, "why": workloads.WHY[workload],
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "AFFINEKIT_THREADS": os.environ.get("AFFINEKIT_THREADS", "unset"),
        "loop": "closed, 1 client",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if "AFFINEKIT_THREADS" in os.environ:
        raise RuntimeError("AFFINEKIT_THREADS must be unset: the tracer assumes one thread")

    jobs, warmup, scenarios, setup_s = setup(args.workload, args.seed, args.work, args.tiny)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        gate = Gate(scenarios)
        for job in warmup:
            gate.check(execute(job, "warmup"))
        timed, phase = timed_phase(jobs, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for ex in timed:
            gate.check(ex)
        gate.check_oracles(jobs, timed)
        e2e, samples = end_to_end(timed, phase, rss_mb)
        result.update(meta=meta(args.workload, args.seed), end_to_end=e2e, samples=samples)
        if args.trace:
            import microbench

            summary, steps, traced, overhead = traced_pass(
                jobs, gate, e2e["wall_s"]["value"],
                os.path.join(args.work, "spans.npz"))
            if not summary.well_nested or abs(summary.self_sum_residual_s()) > 1e-6:
                raise RuntimeError("span bookkeeping: self times do not add up to the "
                                   "traced wall time")
            layers = per_layer(summary, steps, traced, overhead, gate.energy_drift_max)
            for name, value in microbench.run(args.seed, args.tiny).items():
                layers[name] = {"value": value, "unit": "us"}
            result.update(per_layer=layers, span_counts=summary.counts(),
                          span_check={"self_sum_residual_s": summary.self_sum_residual_s(),
                                      "well_nested": summary.well_nested})
        result.update(attempted=gate.attempted, failed=len(gate.failed),
                      failures=gate.problems())
        shutil.rmtree(os.path.join(args.work, "jobs"), ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
