"""affinekit benchmark.

    python3 perfbench/run.py --workload few_body --seed 1 --seconds 20 --trace 0

Runs one workload (or ``all``) of ``affinekit`` commands in a fresh worker
process pinned to one BLAS/OpenMP thread, prints every metric by name with
its unit, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced pass and the layer microbench with ``--trace 1``.
Exits 0 only when every correctness check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_PROBES = 6        # extra fresh processes that only set up; setup_s is the median
TIMEOUT_S = 170.0       # per workload, set-up probes included
P75_MIN_BEYOND = 10
GATED = ("steps_per_ref", "job_ref_p50", "pass_ref_p50", "peak_rss_mb", "setup_s")
# printed and stored in report.json, outside the JSON line
UNGATED = ("job_ref_p75", "steps_per_s", "job_s_p50", "job_s_p75", "wall_s", "ref_ms",
           "error_rate")
PERCENTILES = ("job_ref_p75", "job_s_p75")


class WorkerError(RuntimeError):
    pass


def _worker(workload: str, args, extra: list, deadline: float) -> dict:
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    result = work / "result.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ)
    env.pop("AFFINEKIT_THREADS", None)
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--result", str(result), *extra]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload}: worker passed the {TIMEOUT_S:.0f} s limit") from exc
    if proc.returncode != 0 or not result.is_file():
        raise WorkerError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return data


def measure(workload: str, args) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    probes = 1 if args.tiny else SETUP_PROBES
    setups = [_worker(workload, args, ["--setup-only"], deadline)["setup_s"]
              for _ in range(probes)]
    res = _worker(workload, args, [], deadline)
    setups.append(res["setup_s"])
    res["end_to_end"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    res["samples"]["setups"] = len(setups)
    res["end_to_end"]["error_rate"] = {"value": res["failed"] / res["attempted"],
                                       "unit": "ratio"}
    with open(WORK / workload / "report.json", "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return res


def _row(name: str, metric: dict, note: str = "") -> str:
    return f"  {name:<44} {metric['value']:>16.6g} {metric['unit']:<6} {note}".rstrip()


def print_report(res: dict, args) -> None:
    m, e2e, n = res["meta"], res["end_to_end"], res["samples"]
    print(f"== {m['workload']}: seed {m['seed']}, {args.seconds:g} s, trace {args.trace}, "
          f"{m['loop']} ==")
    print(f"  why: {m['why']}")
    pins = " ".join(f"{k}={v}" for k, v in m["threads"].items())
    print(f"  python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}, nproc {m['nproc']} "
          f"({m['cpus_allowed']} allowed), {pins}, AFFINEKIT_THREADS {m['AFFINEKIT_THREADS']}")
    q1, _, q3 = n["ref_samples_quartiles_ms"]
    notes = {
        "steps_per_ref": "steps / summed job refs",
        "job_ref_p50": f"{n['jobs']} jobs",
        "pass_ref_p50": f"median of {n['passes']} passes",
        "setup_s": f"median of {n['setups']} set-ups",
        "wall_s": f"median of {n['passes']} passes",
        "ref_ms": f"median of {n['ref_samples']} samples, quartiles {q1:.3f} .. {q3:.3f} ms",
        "error_rate": f"{res['failed']} of {res['attempted']} executions failed",
    }
    print("  end to end (1 ref = one reference-kernel call; the first five are gated):")
    for name in (*GATED, *UNGATED):
        if name in PERCENTILES and n["beyond_p75"] < P75_MIN_BEYOND:
            print(f"  {name:<44} {'not reported':>16} {e2e[name]['unit']:<6} {n['jobs']} jobs, "
                  f"{n['beyond_p75']} beyond p75 (needs {P75_MIN_BEYOND})")
            continue
        note = f"{n['jobs']} jobs, {n['beyond_p75']} beyond" if name in PERCENTILES \
            else notes.get(name, "")
        print(_row(name, e2e[name], note))
    if args.trace:
        print("  per layer (traced pass, microbench untraced):")
        for name, metric in res["per_layer"].items():
            print(_row(name, metric))
        sc = res["span_check"]
        print(f"  span check: module self times + bench.self_s - trace.wall_s = "
              f"{sc['self_sum_residual_s']:.3e} s, well nested: {sc['well_nested']}")
        print(f"  spans: {WORK / m['workload'] / 'spans.npz'}")
    for problem in res["failures"]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "affinekit" / "__init__.py").is_file():
        print(f"perfbench: no affinekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        shutil.rmtree(WORK / name, ignore_errors=True)
        try:
            results[name] = measure(name, args)
        except WorkerError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print_report(results[name], args)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, res in results.items():
        chosen = res[section] if args.trace else {k: res[section][k] for k in GATED}
        prefix = f"{name}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in chosen.items()})
    line = {"correct": all(r["failed"] == 0 for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": metrics}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
