"""End-to-end properties of ``affinekit run`` over generated scenarios.

Each example is a scenario drawn from the models, channels, step sizes and
methods the schema offers, run through the command line twice.  Whatever
the run meets on its way, it ends as a completed run (exit 0) or as an
aborted one (exit 2) with its partial artifacts; exit 1 is left to bad
input, such as an initial state where H is undefined, which none of these
draws is.  On the same draws, the compiled RHS and its two halves, the
velocity and the force, evaluate a stack of states as they do each state
alone.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from affinekit.cli import main as cli_main
from affinekit.dynamics import _half_views, _pack, compile_system
from affinekit.kinetics import INTERNAL_MODELS, TRANSLATIONAL_MODELS
from affinekit.scenario import scenario_from_dict

ARTIFACTS = ("trajectory.csv", "charges.csv", "summary.json")


@st.composite
def scalar_fns(draw):
    """A scalar function of each kind; lj and harmonic_log are defined on
    the positive arguments that every channel has at the drawn states."""
    kind = draw(st.sampled_from(["harmonic", "poly", "harmonic_log", "lj"]))
    if kind == "harmonic":
        return {"kind": kind, "stiffness": draw(st.sampled_from([0.5, 2.0])),
                "center": draw(st.sampled_from([1.0, 2.0]))}
    if kind == "poly":
        return {"kind": kind, "coeffs": [0.0, 0.1, 0.5], "shift": 1.0}
    if kind == "harmonic_log":
        return {"kind": kind, "stiffness": 1.0, "ref": 1.5}
    return {"kind": kind, "epsilon": 0.1, "sigma": 1.0}


@st.composite
def scenarios(draw):
    """n, N in 1..3 with centers on a lattice of spacing 2, phi within 0.2
    of the identity or squeezed to det about 1e-3, a subset of the one-body,
    dilatation and binary channels, dt over three decades and 40, 13, 4 or 1
    steps of either method.  The lengths are a fixed set, so each is drawn
    about as often as the others, the first a little more often and the last
    a little less; an integer range would spend most examples on its
    shortest runs.  A run of 0 steps is test_zero_length_run_single_snapshot's
    case."""
    n, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    squeeze = draw(st.sampled_from([1.0, 1e-3]))
    bodies = []
    for K in range(N):
        x = np.zeros(n)
        x[0] = 2.0 * K
        phi = np.eye(n) + 0.2 * rng.uniform(-1, 1, (n, n)) / n
        phi[-1] *= squeeze
        bodies.append({"x": x.tolist(), "phi": phi.tolist(),
                       "p": rng.uniform(-0.5, 0.5, n).tolist(),
                       "pi": rng.uniform(-0.5, 0.5, (n, n)).tolist()})
    potential = {}
    if draw(st.booleans()):
        potential["one_body"] = [{"kind": "harmonic_x", "stiffness": 1.0, "center": [0.0] * n}]
    if draw(st.booleans()):
        potential.setdefault("one_body", []).append(
            {"kind": "invariant", "a": draw(st.integers(1, 2)), "fn": draw(scalar_fns())})
    if draw(st.booleans()):
        potential["dilatation"] = {"kappa": draw(st.sampled_from([0.1, 1.0])), "d_ref": 1.0}
    if N > 1 and draw(st.booleans()):
        args = st.sampled_from(["r", "D", "K:1", "Mbar:1", "Mbar:2"])
        potential["binary"] = [{"arg": arg, "fn": draw(scalar_fns())}
                               for arg in draw(st.lists(args, min_size=1, max_size=2))]
    eye = np.eye(n).tolist()
    dt = 10.0 ** draw(st.floats(-3.0, 0.0))
    return {
        "schema_version": 1, "n": n, "N": N,
        "kinetic": {"translational": draw(st.sampled_from(TRANSLATIONAL_MODELS)),
                    "internal": draw(st.sampled_from(INTERNAL_MODELS))},
        "inertia": {"M": 1.0, "I": 6.0, "A": 1.0, "B": 1.0, "J": eye, "H": eye,
                    "Lten": np.eye(n * n).tolist(), "Rten": np.eye(n * n).tolist()},
        "potential": potential, "initial": {"bodies": bodies},
        "integrator": {"method": draw(st.sampled_from(["implicit_midpoint", "rk4"])),
                       "dt": dt, "T": draw(st.sampled_from((40, 13, 4, 1))) * dt}}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_a_run_completes_or_aborts_with_its_artifacts(scenario):
    """The exit code is 0 or 2, never 1; all three artifacts are written
    either way, an aborted run names its failure in summary.json, and a
    rerun writes the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "s.json").write_text(json.dumps(scenario))
        codes = [cli_main(["run", str(tmp / "s.json"), "--out", str(tmp / out)])
                 for out in ("a", "b")]
        assert codes[0] in (0, 2) and codes[1] == codes[0]
        summary = json.loads((tmp / "a" / "summary.json").read_text())
        assert summary["exit_code"] == codes[0]
        assert bool(summary["abort_kind"]) == summary["aborted"] == (codes[0] == 2)
        for name in ARTIFACTS:
            assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()


def _translation_invariant(scenario):
    """The scenario without its harmonic_x terms, the only potential that
    depends on the centers x themselves and not on their differences."""
    potential = dict(scenario["potential"])
    one_body = [t for t in potential.pop("one_body", []) if t["kind"] != "harmonic_x"]
    if one_body:
        potential["one_body"] = one_body
    return {**scenario, "potential": potential}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(scenario=scenarios().map(_translation_invariant))
def test_a_translation_invariant_run_conserves_total_momentum(scenario):
    """With no harmonic_x term H is invariant under translations, so every
    p[i] column of charges.csv of a completed run stays within roundoff of
    its first row: 1e-12 x max(1, max|p|)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "s.json").write_text(json.dumps(scenario))
        if cli_main(["run", str(tmp / "s.json"), "--out", str(tmp / "a")]) != 0:
            return
        lines = (tmp / "a" / "charges.csv").read_text().splitlines()
    header = lines[0].split(",")
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    p = table[:, [i for i, name in enumerate(header) if name.startswith("p[")]]
    assert p.shape[1] == scenario["n"]
    assert np.max(np.abs(p - p[0])) <= 1e-12 * max(1.0, np.max(np.abs(p)))


def _compiled(scenario):
    s = scenario_from_dict(scenario)
    return s, compile_system(s.model, s.params, s.potential, s.n, s.N)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_stacked_rhs_velocity_and_force_equal_the_row_calls(scenario):
    """At the initial state and three others whose entries are scaled by
    1 + 1e-6 u (u uniform in [-1, 1], a fixed seed), the stacked rhs is each
    row's own call, bit for bit, and so are velocity and force, which the
    midpoint sweep calls on stacks of contiguous half arrays; side by side,
    they are the stacked rhs."""
    s, system = _compiled(scenario)
    z0 = _pack(s.initial_state())
    u = np.random.default_rng(0).uniform(-1.0, 1.0, (4, z0.size))
    u[0] = 0.0
    z = z0 * (1.0 + 1e-6 * u)
    assert system.rhs(z).tobytes() == np.stack([system.rhs(row) for row in z]).tobytes()
    N, n, half = s.N, s.n, z0.size // 2

    def halves(at):
        q, m = (np.ascontiguousarray(a) for a in (at[..., :half], at[..., half:]))
        v, f = np.empty_like(q), np.empty_like(m)
        system.velocity(*_half_views(q, N, n), *_half_views(m, N, n), *_half_views(v, N, n))
        system.force(*_half_views(q, N, n), *_half_views(m, N, n), *_half_views(f, N, n))
        return np.concatenate([v, f], axis=-1)

    stacked = halves(z).tobytes()
    assert stacked == np.stack([halves(row) for row in z]).tobytes()
    assert stacked == system.rhs(z).tobytes()
