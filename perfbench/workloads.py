"""Benchmark workloads: the jobs of each workload, generated from the seed.

A workload is a fixed list of jobs, one *pass*.  The timed phase repeats the
pass back to back, so every job of a pass is the same in each repetition and
its output hash must repeat too.  Each job is one ``affinekit`` command line
(``run``, ``check``, ``measure-check`` or ``spectrum``) driven in-process
through ``affinekit.cli.main``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("few_body", "pair_heavy", "long_stream", "verify")

# Why each workload is in the benchmark; printed with every result.
WHY = {
    "few_body": "five bundled n=2 scenarios with short T: per-call Python and "
                "numpy overhead of the RHS layers dominates, pair loops and memory do not",
    "pair_heavy": "n=3 N=8 is-af systems with Mbar and D pair terms: the O(N^2) "
                  "potential_gradient pair loop dominates every step",
    "long_stream": "one 10k-step separable dalembert job: per-step integrate work, "
                   "noether_charges SVDs, CSV writers and states kept in memory",
    "verify": "every check suite, measure-check n=1/2/3 and a 4000-point spectrum: "
              "checks, measures, qdesk and kinematics, and no integration",
}

FEW_BODY_SCENARIOS = ("harmonic_oscillator", "dalembert_free_internal",
                      "afaf_geodetic_gl2", "afaf_dilatation_stabilized",
                      "two_body_affine_pair")
FEW_BODY_STEPS = 150
PAIR_N, PAIR_BODIES, PAIR_SYSTEMS, PAIR_STEPS, PAIR_DT = 3, 8, 4, 5, 0.01
LONG_STEPS, LONG_DT = 10_000, 0.002
WARMUP_STEPS = 2
SUITES = ("invariance", "brackets", "measures", "legendre", "qdesk")
SPECTRUM_ARGS = ["--alpha", "1.0", "--potential", "harmonic:1.0", "--qmin", "-10",
                 "--qmax", "10", "--points", "4000", "--levels", "5"]

# Energy drift allowed on a job of each dynamic workload; the seed code
# stays below 1e-7 on all of them.
DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class Job:
    key: str
    argv: tuple
    kind: str                   # run | check | measure-check | spectrum
    scenario: str = ""          # scenario file of a run job
    out_dir: str = ""           # artifact directory of a run job
    geodesic: bool = False      # af-af free motion with a closed-form flow


def _write(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    return path


def _run_job(key: str, data: dict, work: str, geodesic: bool = False) -> Job:
    scenario = _write(os.path.join(work, "inputs", f"{key}.json"), data)
    out_dir = os.path.join(work, "jobs", key)
    return Job(key=key, argv=("run", scenario, "--out", out_dir), kind="run",
               scenario=scenario, out_dir=out_dir, geodesic=geodesic)


def _with_steps(data: dict, steps: int) -> dict:
    data = dict(data)
    data["integrator"] = dict(data["integrator"])
    data["integrator"]["T"] = steps * data["integrator"]["dt"]
    return data


def bundled_perturbed(name: str, rng: np.random.Generator) -> dict:
    """A bundled scenario with its initial momenta nudged by the seed."""
    from affinekit import bundled_scenario_path

    with open(bundled_scenario_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    for body in data["initial"]["bodies"]:
        p = np.asarray(body["p"], dtype=float)
        pi = np.asarray(body["pi"], dtype=float)
        body["p"] = (p + 0.02 * rng.standard_normal(p.shape)).tolist()
        body["pi"] = (pi + 0.02 * rng.standard_normal(pi.shape)).tolist()
    data["name"] = name
    return data


def _bodies(rng: np.random.Generator, n: int, N: int, spacing: float) -> list:
    """N bodies near the identity, centers on a square lattice in the x0-x1 plane."""
    side = int(np.ceil(np.sqrt(N)))
    bodies = []
    for K in range(N):
        x = np.zeros(n)
        x[0] = spacing * (K % side)
        if n > 1:
            x[1] = spacing * (K // side)
        bodies.append({
            "x": (x + 0.05 * rng.standard_normal(n)).tolist(),
            "phi": (np.eye(n) + 0.05 * rng.standard_normal((n, n))).tolist(),
            "p": (0.05 * rng.standard_normal(n)).tolist(),
            "pi": (0.05 * rng.standard_normal((n, n))).tolist(),
        })
    return bodies


def pair_scenario(n: int, N: int, rng: np.random.Generator, steps: int = PAIR_STEPS) -> dict:
    """An is-af system with harmonic Mbar:1, Mbar:2 and D pair terms."""
    binary = [{"arg": f"Mbar:{a}", "fn": {"kind": "harmonic", "stiffness": 0.5,
                                          "center": float(n)}}
              for a in (1, 2)]
    binary.append({"arg": "D", "fn": {"kind": "harmonic", "stiffness": 0.2, "center": 2.0}})
    return {
        "schema_version": 1, "name": f"pair_n{n}_N{N}", "n": n, "N": N,
        "kinetic": {"translational": "dalembert", "internal": "is-af"},
        "inertia": {"M": 1.0, "I": 6.0, "A": 1.0, "B": 1.0},
        "potential": {"binary": binary},
        "initial": {"bodies": _bodies(rng, n, N, 2.0)},
        "integrator": {"method": "implicit_midpoint", "dt": PAIR_DT, "T": steps * PAIR_DT},
        "seed": 0,
    }


def long_scenario(rng: np.random.Generator, steps: int) -> dict:
    """A separable dalembert/dalembert body in a well with a dilatation stabilizer."""
    return {
        "schema_version": 1, "name": "long_stream", "n": 2, "N": 1,
        "kinetic": {"translational": "dalembert", "internal": "dalembert"},
        "inertia": {"M": 1.0, "J": [[1.0, 0.0], [0.0, 1.0]]},
        "potential": {
            "one_body": [
                {"kind": "harmonic_x", "stiffness": 1.0, "center": [0.0, 0.0]},
                {"kind": "invariant", "a": 1,
                 "fn": {"kind": "harmonic", "stiffness": 0.5, "center": 2.0}},
            ],
            "dilatation": {"kappa": 1.0, "d_ref": 1.0},
        },
        "initial": {"bodies": _bodies(rng, 2, 1, 0.0)},
        "integrator": {"method": "implicit_midpoint", "dt": LONG_DT, "T": steps * LONG_DT},
        "seed": 0,
    }


def build(workload: str, seed: int, work: str, tiny: bool = False):
    """Write the workload's inputs under ``work``; return (pass jobs, warm-up jobs).

    ``tiny`` shrinks every run job to a few steps for the smoke test.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    for sub in ("inputs", "jobs"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    rng = np.random.default_rng(seed)
    jobs, warmup = [], []
    if workload == "few_body":
        steps = 10 if tiny else FEW_BODY_STEPS
        for name in FEW_BODY_SCENARIOS:
            data = bundled_perturbed(name, rng)
            geodesic = name == "afaf_geodetic_gl2"
            jobs.append(_run_job(name, _with_steps(data, steps), work, geodesic))
            warmup.append(_run_job(f"warmup_{name}", _with_steps(data, WARMUP_STEPS), work))
    elif workload == "pair_heavy":
        steps = 2 if tiny else PAIR_STEPS
        for k in range(PAIR_SYSTEMS):
            data = pair_scenario(PAIR_N, PAIR_BODIES, rng, steps)
            jobs.append(_run_job(f"pair{k}", data, work))
        warmup.append(_run_job("warmup_pair", _with_steps(data, WARMUP_STEPS), work))
    elif workload == "long_stream":
        data = long_scenario(rng, 300 if tiny else LONG_STEPS)
        jobs.append(_run_job("long0", data, work))
        warmup.append(_run_job("warmup_long", _with_steps(data, WARMUP_STEPS), work))
    else:
        mc_seed = str(int(rng.integers(0, 2**31)))
        spectrum_out = os.path.join(work, "jobs", "spectrum")
        jobs = [Job(key=f"check_{s}", argv=("check", s), kind="check") for s in SUITES]
        # measure-check for every supported n makes nine commands, so the median
        # job time falls inside one command's cluster, not between two
        jobs += [Job(key=f"measure_check_n{n}", argv=("measure-check", "--n", str(n),
                                                      "--seed", mc_seed),
                     kind="measure-check") for n in (1, 2, 3)]
        jobs.append(Job(key="spectrum", argv=("spectrum", *SPECTRUM_ARGS, "--out", spectrum_out),
                        kind="spectrum"))
        # the cheap commands load every lazily imported module and LAPACK path
        warmup = [job for job in jobs if job.key in ("check_qdesk", "measure_check_n3",
                                                       "spectrum")]
    return jobs, warmup
