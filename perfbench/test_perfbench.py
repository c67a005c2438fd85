"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that each run exits 0 with a correct result line, that every metric
named in BENCHMARK.json and in README.md is reported, and the two trace
properties the layer metrics rely on.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
# reported in the printed table and report.json, outside the gated set
UNGATED_END_TO_END = {"job_ref_p75", "steps_per_s", "job_s_p50", "job_s_p75", "wall_s",
                      "ref_ms", "error_rate"}
LAYERS = ("cli", "scenario", "runner", "dynamics", "kinetics", "potentials", "matcore",
          "kinematics", "checks", "measures", "qdesk")
NAMED_PER_LAYER = {
    "dynamics.rhs_calls_per_step", "dynamics.midpoint_iters_per_step",
    "dynamics.integrate_self_s", "dynamics.noether_charges_us", "dynamics.hamilton_rhs_us",
    "dynamics.hamilton_rhs_self_us", "dynamics.total_energy_us", "dynamics.energy_drift_max",
    "kinetics.inverse_legendre_us", "kinetics.kinetic_phi_gradient_us",
    "kinetics.kinetic_hamiltonian_us", "matcore.checked_det_calls_per_step",
    "potentials.potential_gradient_us", "potentials.total_potential_us",
    "matcore.two_polar_decompose_us", "runner.write_trajectory_csv_s",
    "runner.write_charges_csv_s", "runner.csv_bytes", "scenario.parse_scenario_us",
    "cli.main_self_us", "measures.measure_check_report_s", "qdesk.build_hamiltonian_1d_us",
    "qdesk.solve_spectrum_us", "trace.overhead_s",
    *(f"checks.{s}_s" for s in ("invariance", "brackets", "measures", "legendre", "qdesk")),
    *(f"{m}.self_s" for m in LAYERS),
    *(f"{k}.n{n}_N{N}" for k in ("dynamics.hamilton_rhs_us", "potentials.potential_gradient_us",
                                 "dynamics.noether_charges_us")
      for n in (2, 3) for N in (1, 2, 8, 16)),
}


def test_benchmark_lists_every_named_metric():
    assert NAMED_PER_LAYER <= PER_LAYER
    assert {"steps_per_ref", "job_ref_p50", "pass_ref_p50", "peak_rss_mb",
            "setup_s"} == END_TO_END


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "work" / workload / "report.json").read_text(encoding="utf-8"))
    return line, report


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload):
    line, report = _run(workload, trace=1)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == PER_LAYER
    assert END_TO_END | UNGATED_END_TO_END <= set(report["end_to_end"])
    assert report["span_check"]["well_nested"]
    assert abs(report["span_check"]["self_sum_residual_s"]) < 1e-6
    for key in ("seed", "why", "python", "numpy", "scipy", "nproc", "threads"):
        assert key in report["meta"]
    assert report["meta"]["AFFINEKIT_THREADS"] == "unset"
    spans = report["span_counts"]
    if workload == "verify":
        assert "dynamics.integrate" not in spans and "dynamics.hamilton_rhs" not in spans
    if workload == "pair_heavy":
        self_s = {m: line["metrics"][f"{m}.self_s"]["value"] for m in LAYERS}
        assert max(self_s, key=self_s.get) == "potentials"


def test_untraced_line_holds_the_end_to_end_metrics():
    line, _ = _run("few_body", trace=0)
    assert line["correct"]
    assert set(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_a_tree_without_sources():
    bare = HERE / "work" / "bare_tree"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "few_body",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
