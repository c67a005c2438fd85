"""Run orchestration: integrate a scenario and export its artifacts.

Artifacts written to the output directory:

* ``trajectory.csv``  t, then the phase vector z: all x{K}[i], phi{K}[i][j],
  p{K}[i], then pi{K}[a][i], K running over the bodies inside each block
* ``charges.csv``     t, E, p[i], Sigma[a][b], SigmaHat[a][b], J[a][b], then
  per body: S{K}[a][b], V{K}[a][b], detphi_{K}, q{K}[a]
* ``summary.json``    final charges, relative drifts, the smallest det phi
  over all samples and bodies, solver telemetry (RHS evaluations of the
  accepted steps in total, per step and as a histogram, RHS calls in total
  and per step, and the largest final fixed-point residual), determinism
  hash (the sha256 of trajectory.csv)

Every number is written once, the charges only in charges.csv.  Each CSV is
one table, a row per sample, assembled from column blocks of the stacked
arrays and written by ``write_csv_table``, which hashes the bytes as it
writes them.
Numbers are written as %.17e with the bytes of ``np.savetxt``, but formatted
by a numpy digit kernel in chunks of rows: a correctly rounded binary to
decimal conversion (Gay, Correctly rounded binary-decimal and decimal-binary
conversions, 1990) done exactly in double-double arithmetic, with Python's
``%`` left only the values the kernel cannot prove.  The JSON is key-sorted,
so identical (scenario, seed) pairs produce byte-identical artifacts.  Wall
time is printed by the CLI, never written into them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os

import numpy as np

from .dynamics import Trajectory, integrate
from .scenario import Scenario


def _labels(prefix: str, *dims: int) -> list:
    """Column names prefix[i][j].. over every index of an array of shape dims."""
    return [prefix + "".join(f"[{i}]" for i in idx) for idx in np.ndindex(*dims)]


# The headers depend on (n, N) only, so each is built once per shape.
@functools.lru_cache(maxsize=None)
def trajectory_header(n: int, N: int) -> tuple:
    """t, then a name for each entry of z, in the layout of dynamics._split."""
    cols = ["t"]
    for name, *dims in (("x", n), ("phi", n, n), ("p", n), ("pi", n, n)):
        for K in range(1, N + 1):
            cols += _labels(f"{name}{K}", *dims)
    return tuple(cols)


@functools.lru_cache(maxsize=None)
def charges_header(n: int, N: int) -> tuple:
    cols = ["t", "E"] + _labels("p", n)
    cols += _labels("Sigma", n, n) + _labels("SigmaHat", n, n) + _labels("J", n, n)
    for K in range(1, N + 1):
        cols += _labels(f"S{K}", n, n) + _labels(f"V{K}", n, n)
        cols += [f"detphi_{K}"] + _labels(f"q{K}", n)
    return tuple(cols)


# A table is formatted in chunks of whole rows of about _CSV_CHUNK values, so
# the kernel's temporaries (about 0.2 KB per value) stay bounded whatever the
# table's length and width, and narrow tables still take few chunks.
_CSV_CHUNK = 2048

# The digit kernel: |x| in (_SAFE_LO, _SAFE_HI) is scaled by 10^(17 - E),
# E = floor(log10|x|), to a double-double in [1e17, 1e18) (Dekker, A
# floating-point technique for extending the available precision, 1971),
# whose integer part and fraction give the 18 significant digits of %.17e.
# The scaled value is within about 1e-13 of the exact product, far inside
# _GUARD.  E of a kernel value lies in [-251, 250]; its correction and a
# carry move it by at most one more, so the tables cover |E| <= _E_MAX.
_SAFE_LO, _SAFE_HI = 1e-250, 1e250
_E_MAX = 252
_K_MIN, _K_MAX = 17 - _E_MAX, 17 + _E_MAX
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles
# A fraction within _GUARD of one half leaves the rounding to Python's
# correctly rounded formatter.  Exact ties do occur: a double whose exact
# decimal expansion has 19 significant digits ending in 5, such as
# 2^-27 = 7.450580596923828125e-09, rounds half to even.
_GUARD = 1e-6


def _pow10_table() -> np.ndarray:
    """Rows hi, lo and hi's Veltkamp halves of 10^k for k = _K_MIN.._K_MAX,
    each power hi + lo to within a unit in the 106th bit, from exact
    integers: 10^k itself for k >= 0, and 10^-m = 2^-m / 5^m below."""
    hi, lo = [], []
    f = 5 ** -_K_MIN
    for m in range(-_K_MIN, 0, -1):
        h = 1 / f
        a, b = h.as_integer_ratio()
        hi.append(math.ldexp(h, -m))
        lo.append(math.ldexp((b - a * f) / f, 1 - b.bit_length() - m))
        f //= 5
    p = 1
    for _ in range(_K_MAX + 1):
        h = float(p)
        hi.append(h)
        lo.append(float(p - int(h)))
        p *= 10
    hi = np.array(hi)
    t = _SPLIT * hi
    upper = t - (t - hi)
    return np.stack([hi, np.array(lo), upper, hi - upper])


_POW10 = _pow10_table()
# A value's slot is 7 words (28 bytes): the sign, the first digit, '.', the
# second digit; four words of 4 digits each; 'e', the exponent's sign and
# its digits, the separator and 2 unused bytes.  A mask drops the bytes a
# value does not use: a '+' sign, a leading exponent 0 below |E| = 100.
# The tables hold the words as bytes viewed as native uint32, so a uint8
# view of the slots gives the characters back in order.
_SLOT_WORDS = 7
_D = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)  # "0000".."9999"
_DIGITS4[..., 0] = _D[:, None, None, None]
_DIGITS4[..., 1] = _D[:, None, None]
_DIGITS4[..., 2] = _D[:, None]
_DIGITS4[..., 3] = _D
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_HEAD = np.empty((10, 10, 4), np.uint8)  # "-0.0".."-9.9"
_HEAD[..., 0] = ord("-")
_HEAD[..., 1] = _D[:, None]
_HEAD[..., 2] = ord(".")
_HEAD[..., 3] = _D
_HEAD = _HEAD.view(np.uint32).ravel()
del _D
_EXP = np.frombuffer(b"".join(b"e%c%03d,\0\0" % (b"-+"[e >= 0], abs(e))
                              for e in range(-_E_MAX, _E_MAX + 1)), np.uint32).reshape(-1, 2)


def _scaled(ax: np.ndarray, E: np.ndarray):
    """ax * 10^(17 - E) as a double-double (hi, lo): Dekker's exact product
    of ax with the power's hi, plus ax times its lo."""
    hi, lo, ph, pl = np.take(_POW10, 17 - E - _K_MIN, axis=1)
    t = _SPLIT * ax
    xh = t - (t - ax)
    xl = ax - xh
    p = ax * hi
    err = ((xh * ph - p) + xh * pl + xl * ph) + xl * pl
    return p, err + ax * lo


def _format_rows(table: np.ndarray) -> bytes:
    """The rows of a float64 table as %.17e values joined by ',' and ended
    by newlines: the bytes of ``np.savetxt(fmt="%.17e", delimiter=",")``.

    Zeros and finite |x| in (_SAFE_LO, _SAFE_HI) take the digit kernel:
    E is estimated from log10|x|, corrected by one where the unrounded
    double-double x 10^(17 - E) falls outside [1e17, 1e18), and the value
    rounded to the 18-digit integer N (a carry to 10^18 moves E up one).
    N's digits fill the value's slot from the word tables.  Everything else
    (NaN, infinities, subnormals, the far ranges) and every fraction within
    _GUARD of one half is formatted by Python's ``%`` into its slot."""
    x = table.ravel()
    M = len(x)
    ax = np.abs(x)
    kernel = (ax > _SAFE_LO) & (ax < _SAFE_HI)
    zero = ax == 0.0
    ax[~kernel] = 1.0  # a stand-in that keeps the arithmetic finite
    E = np.floor(np.log10(ax)).astype(np.intp)
    hi, lo = _scaled(ax, E)
    below = (hi < 1e17) | ((hi == 1e17) & (lo < 0))
    above = (hi > 1e18) | ((hi == 1e18) & (lo >= 0))
    moved = np.flatnonzero(below | above)
    if moved.size:
        E[moved] += above[moved].astype(np.intp) - below[moved]
        hi[moved], lo[moved] = _scaled(ax[moved], E[moved])
    whole = np.floor(lo)
    frac = lo - whole
    N = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = N == 10 ** 18
    N[carry] = 10 ** 17
    E += carry
    N[zero] = 0
    E[zero] = 0
    fallback = ~(kernel | zero) | (np.abs(frac - 0.5) < _GUARD) \
        | (kernel & ((N < 10 ** 17) | (N >= 10 ** 18)))
    N[fallback] = 0

    words = np.empty((M, _SLOT_WORDS), np.uint32)
    head = N // 10 ** 16
    tail = N - head * 10 ** 16
    words[:, 0] = np.take(_HEAD, head)
    for col, part in ((1, tail // 10 ** 8), (3, tail % 10 ** 8)):
        upper = part // 10000
        words[:, col] = np.take(_DIGITS4, upper)
        words[:, col + 1] = np.take(_DIGITS4, part - upper * 10000)
    words[:, 5:] = np.take(_EXP, E + _E_MAX, axis=0)
    slots = words.view(np.uint8)
    slots.reshape(table.shape + (-1,))[:, -1, 25] = ord("\n")
    keep = np.ones(slots.shape, bool)
    keep[:, 26:] = False
    keep[:, 0] = np.signbit(x)
    keep[:, 22] = np.abs(E) >= 100
    if fallback.any():
        # at most 25 characters: '-1.79769313486231571e+308'
        text = b"".join(("%.17e" % v).encode("ascii").ljust(25, b"\0")
                        for v in x[fallback].tolist())
        text = np.frombuffer(text, np.uint8).reshape(-1, 25)
        slots[fallback, :25] = text
        keep[fallback, :25] = text != 0
    return slots[keep].tobytes()


def write_csv_table(path, header, blocks) -> str:
    """Write the header, then one row per sample of the (S, ...) column
    blocks side by side, every value as %.17e; return the sha256 hex digest
    of the bytes written.  The bytes are those of ``np.savetxt`` with that
    format: _format_rows turns chunks of whole rows, about _CSV_CHUNK values
    each, into them with a numpy digit kernel, without a Python float per
    value."""
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    blocks = [b.reshape(len(b), math.prod(b.shape[1:])) for b in blocks]
    rows = max(1, _CSV_CHUNK // sum(b.shape[1] for b in blocks))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        head = (",".join(header) + "\n").encode("utf-8")
        digest.update(head)
        fh.write(head)
        for i in range(0, len(blocks[0]), rows):
            text = _format_rows(np.concatenate([b[i:i + rows] for b in blocks], axis=1))
            digest.update(text)
            fh.write(text)
    return digest.hexdigest()


def write_trajectory_csv(path, traj: Trajectory) -> str:
    return write_csv_table(path, trajectory_header(traj.n, traj.N), [traj.times, traj.z])


def write_charges_csv(path, traj: Trajectory) -> str:
    S, n, N, c = len(traj.times), traj.n, traj.N, traj.charges
    bodies = np.concatenate([c.spin.reshape(S, N, -1), c.vorticity.reshape(S, N, -1),
                             c.det_phi[:, :, None], c.q_log], axis=2)
    return write_csv_table(path, charges_header(n, N),
                           [traj.times, c.energy, c.p_total, c.sigma_total, c.sigma_hat_total,
                            c.j_total, bodies])


def relative_drift(series: np.ndarray) -> float:
    """Max deviation from the initial value in max-norm, relative to the
    initial max-norm (absolute when the initial value is zero)."""
    series = np.asarray(series, dtype=float).reshape(len(series), -1)
    dev = float(np.max(np.abs(series - series[0])))
    scale = float(np.max(np.abs(series[0])))
    return dev / scale if scale > 0 else dev


def charge_drifts(traj: Trajectory) -> dict:
    c = traj.charges
    series = {
        "energy": c.energy,
        "p_total": c.p_total,
        "sigma_total": c.sigma_total,
        "sigma_hat_total": c.sigma_hat_total,
        "j_total": c.j_total,
        "spin_total": c.spin.sum(axis=1),
        "vorticity_total": c.vorticity.sum(axis=1),
    }
    return {name: relative_drift(values) for name, values in series.items()}


def solver_telemetry(traj: Trajectory) -> dict:
    """RHS evaluations of the accepted steps, in total, per step and as a
    histogram {evaluations: steps}; the RHS calls the run made (a window
    evaluates all its steps in one call), in total and per step; and the
    largest last fixed-point residual of a midpoint step relative to its
    scale (None without one)."""
    steps = len(traj.step_evals)
    counts, freq = np.unique(traj.step_evals, return_counts=True)
    residuals = traj.step_residuals[~np.isnan(traj.step_residuals)]
    return {"rhs_evals": traj.rhs_evals,
            "rhs_evals_per_step": traj.rhs_evals / steps if steps else 0.0,
            "rhs_calls": traj.rhs_calls,
            "rhs_calls_per_step": traj.rhs_calls / steps if steps else 0.0,
            "evals_histogram": {str(c): int(f) for c, f in zip(counts, freq)},
            "max_final_residual": float(residuals.max()) if residuals.size else None}


def run(scenario: Scenario, out_dir) -> dict:
    """Integrate the scenario and write its artifacts; returns the summary.
    Bad input raises from integrate before the output directory is made."""
    traj = integrate(scenario.model, scenario.params, scenario.potential,
                     scenario.initial_state(), dt=scenario.dt, T=scenario.T,
                     method=scenario.method)
    os.makedirs(out_dir, exist_ok=True)
    traj_hash = write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    write_charges_csv(os.path.join(out_dir, "charges.csv"), traj)

    c = traj.charges
    steps = len(traj.times) - 1
    summary = {
        "name": scenario.name,
        "schema_version": scenario.schema_version,
        "n": scenario.n,
        "N": scenario.N,
        "model": {"translational": scenario.model.translational,
                  "internal": scenario.model.internal},
        "integrator": {"method": scenario.method, "dt": scenario.dt, "T": scenario.T},
        "seed": scenario.seed,
        "steps": steps,
        "final_time": traj.times[-1],
        "aborted": traj.aborted,
        "abort_reason": traj.abort_reason,
        "abort_kind": traj.abort_kind,
        "initial_energy": float(c.energy[0]),
        "final_energy": float(c.energy[-1]),
        "final_charges": {name: getattr(c, name)[-1].tolist()
                          for name in ("p_total", "sigma_total", "sigma_hat_total", "j_total")},
        "drifts": charge_drifts(traj),
        "min_det_phi": float(c.det_phi.min()),
        "solver": solver_telemetry(traj),
        "artifacts": ["trajectory.csv", "charges.csv"],
        "determinism_hash": "sha256:" + traj_hash,
        "exit_code": 2 if traj.aborted else 0,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
