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
arrays and written by ``write_csv_table``.  Only trajectory.csv is hashed as
it is written, since only its digest is read; charges.csv is not.
Numbers are written as %.17e with the bytes of ``np.savetxt``, but formatted
by a numpy digit kernel in chunks of rows of about _CSV_CHUNK values, a size
chosen by the writers' time and the run's peak RSS (see there): a correctly
rounded binary to decimal conversion (Gay, Correctly rounded binary-decimal
and decimal-binary conversions, 1990) done exactly in double-double
arithmetic, with Python's ``%`` left only the values the kernel cannot
prove.  Each value fills a fixed slot of bytes from lookup tables that hold
NUL where a byte is absent, and one pass that deletes the NULs gives the
text.  The JSON is key-sorted, so identical (scenario, seed) pairs produce
byte-identical artifacts.  Wall time is printed by the CLI, never written
into them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os

import numpy as np

from .dynamics import Trajectory, integrate
from .errors import RunTooLong
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
# the kernel's temporaries (about 110 bytes per value at their peak) stay
# bounded whatever the table's length and width; each chunk also pays a
# fixed cost of some 40 numpy calls.  The size was chosen on the two tables
# of a 10k-step n = 2, N = 1 run (400k values).  Time: the writers took 94,
# 82, 75 and 71 ms (medians of 40 interleaved rounds) at 2048, 4096, 6144
# and 8192 values.  Memory: a benchmark worker that runs such jobs for 10 s
# peaked 0.0, 0.0, 0.2 and 0.7 MB above its 67.5 MB with the kernel before
# its NUL tables (at 2048).  6144 keeps that rise small; 8192 would save
# about 4 ms more for 0.7 MB.  (A worker whose peak is a 24k-value rho.csv
# reads 0.6 MB more at 6144 than the old kernel.)
_CSV_CHUNK = 6144

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
# its digits, the separator and 2 NULs.  A byte a value does not use is NUL
# in its table: the sign of a positive value and the exponent's hundreds
# digit below |E| = 100.  One pass that deletes every NUL then leaves the
# text.  The tables hold the words as bytes viewed as native integers, so a
# uint8 view of the slots gives the characters back in order.
_SLOT_WORDS = 7
_D = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.empty((10, 10, 10, 10, 4), np.uint8)  # "0000".."9999"
_DIGITS4[..., 0] = _D[:, None, None, None]
_DIGITS4[..., 1] = _D[:, None, None]
_DIGITS4[..., 2] = _D[:, None]
_DIGITS4[..., 3] = _D
_DIGITS4 = _DIGITS4.view(np.uint32).ravel()
_HEAD = np.empty((2, 10, 10, 4), np.uint8)  # NUL or "-", then "0.0".."9.9"
_HEAD[..., 0] = np.array([0, ord("-")], np.uint8)[:, None, None]
_HEAD[..., 1] = _D[:, None]
_HEAD[..., 2] = ord(".")
_HEAD[..., 3] = _D
_HEAD = _HEAD.view(np.uint32).ravel()
del _D
# 'e', the sign, the hundreds digit or NUL, two digits, the separator and two
# NULs for E = -_E_MAX.._E_MAX: ended by ',' in the first half, by a newline
# (the last column's) in the second.
_EXP = np.frombuffer(b"".join(
    b"e%c%c%02d%c\0\0" % (b"-+"[e >= 0], ord("0") + abs(e) // 100 if abs(e) >= 100 else 0,
                           abs(e) % 100, sep)
    for sep in b",\n" for e in range(-_E_MAX, _E_MAX + 1)), np.uint64)


def _scaled(ax: np.ndarray, E: np.ndarray):
    """ax * 10^(17 - E) as a double-double (hi, lo): Dekker's exact product
    of ax with the power's hi, plus ax times its lo."""
    hi, lo, ph, pl = np.take(_POW10, 17 - E - _K_MIN, axis=1)
    xh = _SPLIT * ax
    xh -= xh - ax
    xl = ax - xh
    p = ax * hi
    # ((xh ph - p) + xh pl + xl ph) + xl pl, in place, in that order
    err = xh * ph
    err -= p
    xh *= pl
    err += xh
    ph *= xl
    err += ph
    xl *= pl
    err += xl
    lo *= ax
    lo += err
    return p, lo


def _digits17(x: np.ndarray):
    """The 18-digit integer N and decimal exponent E of %.17e for each value
    of a flat float64 array, and a mask of the values the kernel leaves to
    Python's ``%`` (their N is 0).

    Zeros and finite |x| in (_SAFE_LO, _SAFE_HI) take the digit kernel:
    E is estimated from log10|x|, corrected by one where the unrounded
    double-double x 10^(17 - E) falls outside [1e17, 1e18), and the value
    rounded to N (a carry to 10^18 moves E up one).  Everything else (NaN,
    infinities, subnormals, the far ranges) and every fraction within
    _GUARD of one half falls back."""
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
    return N, E, fallback


def _slots(N: np.ndarray, E: np.ndarray, negative: np.ndarray, shape) -> np.ndarray:
    """The (M, 28) uint8 slots of M values of a table of the given shape,
    filled from the word tables with the digits N, the exponents E and the
    signs; the last column's separator is the newline.  Its temporaries are
    freed on return, before the text is made, which bounds the kernel's
    peak memory."""
    words = np.empty((len(N), _SLOT_WORDS), np.uint32)
    head, tail = np.divmod(N, 10 ** 16)
    head += 100 * negative
    words[:, 0] = np.take(_HEAD, head)
    for col, part in zip((1, 3), np.divmod(tail, 10 ** 8)):
        upper, lower = np.divmod(part, 10000)
        words[:, col] = np.take(_DIGITS4, upper)
        words[:, col + 1] = np.take(_DIGITS4, lower)
    row = E + _E_MAX
    row.reshape(shape)[:, -1] += len(_EXP) // 2  # the newline half
    words[:, 5:].view(np.uint64)[:, 0] = np.take(_EXP, row)
    return words.view(np.uint8)


def _format_rows(table: np.ndarray) -> bytes:
    """The rows of a float64 table as %.17e values joined by ',' and ended
    by newlines: the bytes of ``np.savetxt(fmt="%.17e", delimiter=",")``.

    The digits of _digits17 fill each value's slot; Python's ``%`` formats
    the values it leaves into theirs.  Deleting the NULs of every slot in
    one pass leaves the text."""
    x = table.ravel()
    N, E, fallback = _digits17(x)
    slots = _slots(N, E, np.signbit(x), table.shape)
    if fallback.any():
        # at most 25 characters: '-1.79769313486231571e+308'
        text = b"".join(("%.17e" % v).encode("ascii").ljust(25, b"\0")
                        for v in x[fallback].tolist())
        slots[fallback, :25] = np.frombuffer(text, np.uint8).reshape(-1, 25)
    return slots.tobytes().translate(None, b"\0")


def write_csv_table(path, header, blocks, digest=hashlib.sha256) -> str | None:
    """Write the header, then one row per sample of the (S, ...) column
    blocks side by side, every value as %.17e.  Return the hex digest of the
    bytes written under ``digest``, a hashlib constructor, or None when
    ``digest`` is None and nothing is hashed.  The bytes are those of
    ``np.savetxt`` with that format: _format_rows turns chunks of whole rows,
    about _CSV_CHUNK values each, into them with a numpy digit kernel,
    without a Python float per value."""
    blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
    blocks = [b.reshape(len(b), math.prod(b.shape[1:])) for b in blocks]
    rows = max(1, _CSV_CHUNK // sum(b.shape[1] for b in blocks))
    hasher = digest() if digest else None
    with open(path, "wb") as fh:
        head = (",".join(header) + "\n").encode("utf-8")
        pieces = (_format_rows(np.concatenate([b[i:i + rows] for b in blocks], axis=1))
                  for i in range(0, len(blocks[0]), rows))
        for text in itertools.chain([head], pieces):
            fh.write(text)
            if hasher is not None:
                hasher.update(text)
    return None if hasher is None else hasher.hexdigest()


def write_trajectory_csv(path, traj: Trajectory) -> str:
    """trajectory.csv; returns its sha256 hex digest, the run's
    determinism_hash."""
    return write_csv_table(path, trajectory_header(traj.n, traj.N), [traj.times, traj.z])


def write_charges_csv(path, traj: Trajectory) -> None:
    """charges.csv, written without a digest: nothing reads one."""
    S, n, N, c = len(traj.times), traj.n, traj.N, traj.charges
    bodies = np.concatenate([c.spin.reshape(S, N, -1), c.vorticity.reshape(S, N, -1),
                             c.det_phi[:, :, None], c.q_log], axis=2)
    write_csv_table(path, charges_header(n, N),
                    [traj.times, c.energy, c.p_total, c.sigma_total, c.sigma_hat_total,
                     c.j_total, bodies], digest=None)


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
    try:
        traj = integrate(scenario.model, scenario.params, scenario.potential,
                         scenario.initial_state(), dt=scenario.dt, T=scenario.T,
                         method=scenario.method)
    except RunTooLong as exc:
        raise RunTooLong(f"'integrator.T': {exc}") from None
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
