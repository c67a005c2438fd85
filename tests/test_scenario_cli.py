import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinekit.cli import main as cli_main
from affinekit.dynamics import integrate
from affinekit.errors import ParseError, RunTooLong, ValidationError
from affinekit.runner import run, trajectory_header
from affinekit.scenario import (Scenario, bundled_scenario_path, generate_initial,
                                parse_scenario, scenario_from_dict, scenario_to_dict,
                                serialize_scenario)

MINIMAL = {
    "schema_version": 1,
    "n": 2,
    "N": 1,
    "kinetic": {"translational": "dalembert", "internal": "dalembert"},
    "inertia": {"M": 1.0, "J": [[1.0, 0.0], [0.0, 1.0]]},
}

BUNDLED = ("harmonic_oscillator", "dalembert_free_internal", "afaf_geodetic_gl2",
           "afaf_dilatation_stabilized", "two_body_affine_pair")


# ---------------------------------------------------------------------------
# parsing and validation

def test_minimal_scenario_gets_documented_defaults(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(MINIMAL))
    s = parse_scenario(path)
    assert s.method == "implicit_midpoint"
    assert s.dt == 1e-3
    assert s.T == 1.0
    assert s.seed == 0
    assert s.potential.one_body == () and s.potential.binary == ()
    assert s.initial is None  # generated from the seed on demand
    state = s.initial_state()
    assert state.config.x.shape == (1, 2)
    assert np.linalg.det(state.config.phi[0]) > 0


def test_missing_kinetic_internal_named(tmp_path):
    bad = dict(MINIMAL, kinetic={"translational": "dalembert"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match="kinetic.internal"):
        parse_scenario(path)


def test_malformed_json_gives_parse_error_with_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2,,}')
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario(path)


def test_unknown_model_rejected():
    bad = dict(MINIMAL, kinetic={"translational": "dalembert", "internal": "nope"})
    with pytest.raises(ValidationError):
        scenario_from_dict(bad)


def test_unknown_inertia_key_rejected():
    bad = dict(MINIMAL, inertia={"M": 1.0, "Q": 3.0})
    with pytest.raises(ValidationError, match="Q"):
        scenario_from_dict(bad)


def test_serialize_parse_roundtrip(tmp_path):
    src = parse_scenario(bundled_scenario_path("two_body_affine_pair"))
    path = tmp_path / "copy.json"
    serialize_scenario(src, path)
    back = parse_scenario(path)
    assert scenario_to_dict(back) == scenario_to_dict(src)


def test_all_bundled_scenarios_parse():
    """Schema stability: every shipped example validates."""
    for name in BUNDLED:
        s = parse_scenario(bundled_scenario_path(name))
        assert isinstance(s, Scenario)
        assert s.schema_version == 1


def test_generated_initial_is_seed_deterministic():
    a = scenario_from_dict(dict(MINIMAL, seed=5)).initial_state()
    b = scenario_from_dict(dict(MINIMAL, seed=5)).initial_state()
    np.testing.assert_array_equal(a.config.phi, b.config.phi)
    np.testing.assert_array_equal(a.mom.pi, b.mom.pi)
    c = scenario_from_dict(dict(MINIMAL, seed=6)).initial_state()
    assert np.max(np.abs(a.config.phi - c.config.phi)) > 1e-6


def test_generated_initial_redraws_a_low_det_body():
    """At seed 0 and scale 1 the first draw of body 2 has det phi = -0.54; it
    is drawn again until det phi >= 0.2, and the result is still the same on
    every call."""
    n, N, seed, scale = 2, 3, 0, 1.0
    rng = np.random.Generator(np.random.Philox(seed))
    rng.standard_normal((N, n))
    first = np.stack([np.eye(n) + scale * rng.standard_normal((n, n)) for _ in range(N)])
    assert np.linalg.det(first[2]) < 0.2 <= np.linalg.det(first[:2]).min()
    a, b = generate_initial(n, N, seed, scale), generate_initial(n, N, seed, scale)
    for u, v in ((a.config.x, b.config.x), (a.config.phi, b.config.phi),
                 (a.mom.p, b.mom.p), (a.mom.pi, b.mom.pi)):
        np.testing.assert_array_equal(u, v)
    np.testing.assert_array_equal(a.config.phi[:2], first[:2])
    assert not np.array_equal(a.config.phi[2], first[2])
    assert np.linalg.det(a.config.phi).min() >= 0.2


def lapack_generate_initial(n, N, seed, scale):
    """generate_initial's draws with np.linalg.det deciding each redraw."""
    rng = np.random.Generator(np.random.Philox(seed))
    x = scale * rng.standard_normal((N, n))
    phi = np.stack([np.eye(n) + scale * rng.standard_normal((n, n)) for _ in range(N)])
    for K in range(N):
        while np.linalg.det(phi[K]) < 0.2:
            phi[K] = np.eye(n) + scale * rng.standard_normal((n, n))
    return x, phi, scale * rng.standard_normal((N, n)), scale * rng.standard_normal((N, n, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generated_initial_equals_the_lapack_decided_draws(n):
    """Deciding det phi < 0.2 with matcore's det redraws the same bodies."""
    for seed in range(60):
        for N in (1, 2, 3):
            s = generate_initial(n, N, seed, 1.0)
            got = (s.config.x, s.config.phi, s.mom.p, s.mom.pi)
            want = lapack_generate_initial(n, N, seed, 1.0)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], (seed, N)


def _bundled_dict(name):
    return json.loads(bundled_scenario_path(name).read_text())


def _set_at(d, path, value):
    for key in path[:-1]:
        d = d[key]
    d[path[-1]] = value


INVARIANT = {"kind": "invariant", "fn": {"kind": "harmonic", "stiffness": 1.0, "center": 2.0}}


@pytest.mark.parametrize("path,value,match", [
    pytest.param(("potential", "one_body", 0), dict(INVARIANT, a=0), r"one_body\[0\]\.a",
                 id="invariant_a_zero"),
    pytest.param(("potential", "one_body", 0), dict(INVARIANT, a=-1), r"one_body\[0\]\.a",
                 id="invariant_a_negative"),
    pytest.param(("potential", "one_body", 0, "center"), [5.0], r"one_body\[0\]\.center",
                 id="center_too_short"),
    pytest.param(("potential", "one_body", 0, "center"), [0.0, 0.0, 0.0],
                 r"one_body\[0\]\.center", id="center_too_long"),
    pytest.param(("integrator", "dt"), float("nan"), "integrator.dt", id="dt_nan"),
    pytest.param(("integrator", "dt"), float("inf"), "integrator.dt", id="dt_inf"),
    pytest.param(("integrator", "T"), float("inf"), "integrator.T", id="T_inf"),
    pytest.param(("n",), "two", "'n'", id="n_string"),
    pytest.param(("initial",), {"generate": 3}, "initial.generate", id="generate_number"),
    pytest.param(("initial", "bodies", 0, "phi", 1, 0), float("nan"), r"bodies\[0\]\.phi",
                 id="phi_nan"),
    pytest.param(("initial", "bodies", 0, "p", 0), float("-inf"), r"bodies\[0\]\.p",
                 id="p_minus_inf"),
    pytest.param(("initial", "bodies", 0, "x"), [1.0], r"bodies\[0\]\.x", id="x_too_short"),
    pytest.param(("seed",), -1, "seed", id="seed_negative"),
    pytest.param(("initial", "bodies", 0, "phi"), [[1.0, 0.0], [0.0, 0.0]],
                 r"bodies\[0\]\.phi", id="phi_singular"),
    pytest.param(("initial", "bodies", 0, "phi"), [[-1.0, 0.0], [0.0, 1.0]],
                 r"bodies\[0\]\.phi", id="phi_negative_det"),
    pytest.param(("output",), {"dir": None}, "'output.dir'", id="output_dir_null"),
    pytest.param(("output",), {"dir": ["a"]}, "'output.dir'", id="output_dir_list"),
    pytest.param(("output",), "x", "'output'", id="output_string"),
    pytest.param(("name",), None, "'name'", id="name_null"),
    pytest.param(("n",), 2.5, "'n'", id="n_fraction"),
    pytest.param(("N",), 1.9, "'N'", id="N_fraction"),
    pytest.param(("N",), "1", "'N'", id="N_string"),
    pytest.param(("seed",), 3.7, "'seed'", id="seed_fraction"),
    pytest.param(("integrator", "dt"), True, "integrator.dt", id="dt_bool"),
    pytest.param(("integrator", "dt"), "0.01", "integrator.dt", id="dt_string"),
    pytest.param(("initial", "bodies", 0, "x"), [True, 0.0], r"bodies\[0\]\.x", id="x_bool"),
    pytest.param(("initial", "bodies", 0, "x"), ["1", 0.0], r"bodies\[0\]\.x", id="x_string"),
    pytest.param(("initial", "bodies", 0, "phi"), [["1", 0], [0, 1]], r"bodies\[0\]\.phi",
                 id="phi_string"),
    pytest.param(("potential", "one_body", 0, "center"), [False, 0.0],
                 r"one_body\[0\]\.center", id="center_bool"),
    pytest.param(("inertia", "J"), [[1.0, 0.0], [0.0, -1.0]], "'inertia'.*J must be positive",
                 id="J_indefinite"),
    pytest.param(("inertia", "H"), [[1.0, 0.0], [0.0, 0.0]], "'inertia'.*H must be positive",
                 id="H_singular"),
    pytest.param(("potential", "binary"), [{"arg": "Q", "fn": INVARIANT["fn"]}],
                 r"potential\.binary\[0\]\.arg: unknown binary channel 'Q'",
                 id="binary_channel_unknown"),
    pytest.param(("potential", "binary"),
                 [{"arg": arg, "fn": INVARIANT["fn"]} for arg in ("r", "Mbar:1", "K:0")],
                 r"potential\.binary\[2\]\.arg: unknown binary channel 'K:0'",
                 id="binary_channel_unknown_third"),
    pytest.param(("initial", "bodies"), [], r"initial\.bodies has 0 entries, expected N = 1",
                 id="bodies_not_N"),
    pytest.param(("inertia",), {"per_body": []},
                 r"inertia\.per_body has 0 entries, expected N = 1", id="per_body_not_N"),
    pytest.param((), [MINIMAL], "must be a JSON object", id="top_level_array"),
    pytest.param(("inertia",), {"M": 1.0},
                 r"'inertia': model 'dalembert' needs inertia parameter 'J'", id="J_missing"),
    pytest.param(("inertia",), {"per_body": [{"M": 1.0}]},
                 r"'inertia\.per_body\[0\]': model 'dalembert' needs inertia parameter 'J'",
                 id="per_body_J_missing"),
    pytest.param(("inertia", "J"), [[1e-320, 0.0], [0.0, 1.0]],
                 r"'inertia': J is not invertible", id="J_inverse_overflows"),
    pytest.param(("kinetic", "internal"), "af-af",
                 r"'inertia': model 'af-af' needs inertia parameter 'A'", id="afaf_A_missing"),
])
def test_scenario_defects_are_validation_errors(tmp_path, path, value, match):
    """Each defect is a ValidationError at parse time, also through a JSON
    file (Python's json reads NaN and Infinity).  The empty path replaces the
    whole document: read from a file, a top level that is not an object is
    a ParseError, raised before the schema is looked at."""
    d = _bundled_dict("harmonic_oscillator")
    if path:
        _set_at(d, path, value)
    else:
        d = value
    with pytest.raises(ValidationError, match=match):
        scenario_from_dict(d)
    (tmp_path / "bad.json").write_text(json.dumps(d))
    with pytest.raises(ValidationError if path else ParseError, match=match):
        parse_scenario(tmp_path / "bad.json")


def test_unknown_bundled_scenario_lists_the_available_names():
    with pytest.raises(FileNotFoundError, match=r"no bundled scenario 'nope'; available: "
                                                r"\['afaf_dilatation_stabilized', .*'two_body"):
        bundled_scenario_path("nope")


def test_integral_numbers_parse_in_either_json_form():
    """An integral float fills an int field and an int a float field."""
    d = _bundled_dict("harmonic_oscillator")
    d["n"], d["N"], d["seed"] = float(d["n"]), float(d["N"]), 3.0
    d["integrator"]["dt"] = 1
    s = scenario_from_dict(d)
    assert (s.n, s.N, s.seed, s.dt) == (2, 1, 3, 1.0)
    assert type(s.n) is int and type(s.seed) is int and type(s.dt) is float


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaf_paths(child, path + (key,))
    else:
        yield path


BAD_LEAVES = (None, "bad", float("nan"), float("inf"), float("-inf"), -1, [], {})


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_bad_leaf_raises_only_typed_errors(data):
    """One leaf of a bundled scenario replaced by a bad value: parsing either
    succeeds and round-trips through JSON, or raises ParseError or
    ValidationError."""
    d = _bundled_dict(data.draw(st.sampled_from(BUNDLED)))
    _set_at(d, data.draw(st.sampled_from(list(_leaf_paths(d)))),
            data.draw(st.sampled_from(BAD_LEAVES)))
    try:
        s = scenario_from_dict(d)
    except (ParseError, ValidationError):
        return
    back = scenario_from_dict(json.loads(json.dumps(scenario_to_dict(s))))
    assert scenario_to_dict(back) == scenario_to_dict(s)


# ---------------------------------------------------------------------------
# runner artifacts

def _short_scenario(T=0.05):
    d = json.loads(bundled_scenario_path("afaf_geodetic_gl2").read_text())
    d["integrator"]["T"] = T
    return d


def test_run_writes_artifacts(tmp_path):
    sc = scenario_from_dict(_short_scenario())
    summary = run(sc, tmp_path / "out")
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert (tmp_path / "out" / "charges.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    assert summary["exit_code"] == 0
    assert not summary["aborted"] and summary["abort_kind"] == ""
    assert summary["steps"] == 50
    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert tuple(header.split(",")) == trajectory_header(2, 1)
    assert header == ("t,x1[0],x1[1],phi1[0][0],phi1[0][1],phi1[1][0],phi1[1][1],"
                      "p1[0],p1[1],pi1[0][0],pi1[0][1],pi1[1][0],pi1[1][1]")


def test_zero_length_run_single_snapshot(tmp_path):
    sc = scenario_from_dict(_short_scenario(T=0.0))
    summary = run(sc, tmp_path / "out")
    assert summary["steps"] == 0
    body = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert len(body) == 2  # header + initial state


def test_run_determinism_byte_identical(tmp_path):
    sc = scenario_from_dict(_short_scenario())
    run(sc, tmp_path / "a")
    run(sc, tmp_path / "b")
    for name in ("trajectory.csv", "charges.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_summary_reports_solver_telemetry(tmp_path):
    sc = scenario_from_dict(_short_scenario())
    summary = run(sc, tmp_path / "out")
    solver = summary["solver"]
    traj = integrate(sc.model, sc.params, sc.potential, sc.initial_state(), dt=sc.dt, T=sc.T)
    assert solver["rhs_evals"] == traj.rhs_evals > 0
    assert solver["rhs_evals_per_step"] == solver["rhs_evals"] / summary["steps"]
    assert solver["rhs_calls"] == traj.rhs_calls > 0
    assert solver["rhs_calls_per_step"] == solver["rhs_calls"] / summary["steps"]
    histogram = solver["evals_histogram"]
    assert sum(histogram.values()) == summary["steps"]
    assert sum(int(evals) * steps for evals, steps in histogram.items()) == solver["rhs_evals"]
    assert solver["max_final_residual"] == float(np.max(traj.step_residuals))
    assert 0.0 <= solver["max_final_residual"] <= 1e-12
    on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert on_disk["solver"] == solver
    # deterministic: a rerun reports the same telemetry
    assert run(sc, tmp_path / "again")["solver"] == solver


def test_rk4_summary_has_no_fixed_point_residual(tmp_path):
    d = _short_scenario(T=0.01)
    d["integrator"]["method"] = "rk4"
    solver = run(scenario_from_dict(d), tmp_path / "out")["solver"]
    assert solver["evals_histogram"] == {"4": 10}
    assert solver["max_final_residual"] is None


def test_cli_import_leaves_scipy_interpolate_unloaded(child_env):
    """``affinekit run`` needs no scipy: importing the CLI must not load the
    spline and tridiagonal-eigensolver modules that qdesk uses."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, affinekit.cli; "
         "print(sorted(m for m in ('scipy.interpolate', 'scipy.linalg') if m in sys.modules))"],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_qdesk_commands_leave_scipy_interpolate_unloaded(tmp_path, child_env):
    """``check qdesk`` and ``spectrum`` use scipy.linalg alone: the shift
    spline is built without scipy.interpolate, whose import also loads
    scipy.optimize and scipy.sparse (about 23 MB of RSS)."""
    code = ("import sys; from affinekit.cli import main; "
            "assert main(['check', 'qdesk']) == 0; "
            f"assert main(['spectrum', '--out', {str(tmp_path)!r}]) == 0; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize', 'scipy.sparse') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_aborted_run_exit_code(tmp_path):
    d = {
        "schema_version": 1, "n": 2, "N": 1,
        "kinetic": {"translational": "dalembert", "internal": "dalembert"},
        "inertia": {"M": 1.0, "J": [[1.0, 0.0], [0.0, 1.0]]},
        "initial": {"bodies": [{"x": [0.0, 0.0], "phi": [[1.0, 0.0], [0.0, 1.0]],
                                "p": [0.0, 0.0], "pi": [[-1.0, 0.0], [0.0, -1.0]]}]},
        "integrator": {"dt": 0.01, "T": 2.0},
    }
    summary = run(scenario_from_dict(d), tmp_path / "out")
    assert summary["aborted"]
    assert summary["exit_code"] == 2
    assert summary["abort_kind"] == "StateInvalid"
    assert "det phi" in summary["abort_reason"]


def _coincident_pair(arg):
    """Two dalembert bodies at rest on one center under an ``arg`` pair term."""
    body = {"x": [0.5, -0.5], "phi": [[1.0, 0.0], [0.0, 1.0]], "p": [0.0, 0.0],
            "pi": [[0.0, 0.0], [0.0, 0.0]]}
    return {**MINIMAL, "N": 2, "initial": {"bodies": [body, body]},
            "potential": {"binary": [{"arg": arg, "fn": {"kind": "harmonic", "stiffness": 1.0,
                                                         "center": 1.0}}]},
            "integrator": {"dt": 0.01, "T": 0.1}}


def _two_body_affine_pair(dt, T):
    d = _bundled_dict("two_body_affine_pair")
    d["integrator"].update(dt=dt, T=T)
    return d


def _afaf_without_A(**inertia):
    d = _bundled_dict("afaf_geodetic_gl2")
    d["inertia"].update(A=0.0, **inertia)
    return d


AFAF_A_ZERO = ("error: bad inertia parameters at 'inertia': I^2 = A^2 at (I, A) = (0.0, 0.0); "
               "af-af fixes I = 0")

# name: (scenario, exit code, abort kind or, at exit 1, the stderr line, samples kept)
FAILURE_RUNS = {
    # det phi = 1 - t reaches the floor at sample 100
    "det_floor": (lambda: {**MINIMAL, "initial": {"bodies": [{"x": [0.0, 0.0],
                                                              "phi": [[1.0, 0.0], [0.0, 1.0]],
                                                              "p": [0.0, 0.0],
                                                              "pi": [[-1.0, 0.0], [0.0, 0.0]]}]},
                           "integrator": {"dt": 0.01, "T": 2.0}},
                  2, "StateInvalid", 100),
    # the one-step block from sample 28 runs out of sweeps
    "diverged": (lambda: _two_body_affine_pair(0.7, 28.0), 2, "IterationDiverged", 29),
    # D is defined at coincident centers, its gradient is not
    "coincident_D": (lambda: _coincident_pair("D"), 2, "NonDifferentiable", 1),
    # the first midpoint takes det phi below zero, where the dilatation term is undefined
    "negative_det": (lambda: {**MINIMAL, "potential": {"dilatation": {"kappa": 1e-3}},
                              "initial": {"bodies": [{"x": [0.0, 0.0],
                                                      "phi": [[1.0, 0.0], [0.0, 1.0]],
                                                      "p": [0.0, 0.0],
                                                      "pi": [[-3.0, 0.0], [0.0, 0.0]]}]},
                              "integrator": {"dt": 1.0, "T": 4.0}},
                     2, "NegativeOrientation", 1),
    # bad input, exit 1 with this error line: r is undefined at coincident
    # centers, and its charges raise after the abort
    "coincident_r": (lambda: _coincident_pair("r"), 1,
                     "error: binary r-term with coincident centers", None),
    "binary_channel_unknown_third": (
        lambda: {**MINIMAL, "N": 2, "integrator": {"dt": 0.01, "T": 0.1},
                 "potential": {"binary": [{"arg": arg, "fn": INVARIANT["fn"]}
                                          for arg in ("r", "Mbar:1", "K:0")]}},
        1, "error: potential.binary[2].arg: unknown binary channel 'K:0'", None),
    # af-af fixes I = 0, so A = 0 gives I^2 = A^2, also when an I is given
    "afaf_A_zero": (_afaf_without_A, 1, AFAF_A_ZERO, None),
    "afaf_A_zero_I_given": (lambda: _afaf_without_A(I=2.0), 1, AFAF_A_ZERO, None),
}


@pytest.mark.parametrize("name", FAILURE_RUNS)
def test_cli_run_failure_outcomes(name, tmp_path, capsys):
    """A failure while the run steps aborts it: exit 2, the samples before the
    failure in all three artifacts, and its kind in summary.json and on
    stderr.  Bad input, such as an initial state where H is undefined or a
    scenario that parses to no runnable system, exits 1 with one error line
    and no output directory.  No warning is raised on the way."""
    make, code, kind, samples = FAILURE_RUNS[name]
    (tmp_path / "s.json").write_text(json.dumps(make()))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["run", str(tmp_path / "s.json"), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 1:
        assert not out.exists()
        assert err == kind + "\n"
        return
    assert sorted(f.name for f in out.iterdir()) == ["charges.csv", "summary.json",
                                                     "trajectory.csv"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] and summary["abort_kind"] == kind
    assert summary["steps"] == samples - 1
    assert f"run aborted: {kind}: {summary['abort_reason']}\n" in err
    for table in ("trajectory.csv", "charges.csv"):
        assert len((out / table).read_text().splitlines()) == samples + 1


def _read_columns(path):
    """A CSV artifact as {header name: column array}."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert len(set(header)) == len(header)
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert table.shape[1] == len(header)
    return dict(zip(header, table.T))


def _gather(columns, name, shape):
    """Columns name(*idx) over every idx of shape, stacked to (S, *shape)."""
    stacked = np.stack([columns[name(*idx)] for idx in np.ndindex(*shape)], axis=1)
    return stacked.reshape(-1, *shape)


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 600])
def test_csv_table_has_the_bytes_of_savetxt(tmp_path, rows):
    """write_csv_table formats chunks of whole rows (_CSV_CHUNK // 7 rows of
    7 columns) with a numpy digit kernel; its bytes are those of np.savetxt
    with the same format, including signed zeros, subnormals, values near
    the float64 range and NaN.  These tables fit in one chunk; the tests
    below put rows and values on the chunk edges."""
    import io

    from affinekit.runner import write_csv_table

    rng = np.random.default_rng(rows)
    special = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300, -1e300,
                        1.7976931348623157e308, np.nan, 1.0, -1.0 / 3.0])
    table = rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(-300, 300, (rows, 7))
    table.ravel()[:len(special)] = special[:table.size]
    header = [f"c{i}" for i in range(7)]
    write_csv_table(tmp_path / "t.csv", header, [table[:, :1], table[:, 1:4], table[:, 4:]])
    expected = io.StringIO()
    np.savetxt(expected, table, fmt="%.17e", delimiter=",", header=",".join(header),
               comments="")
    assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode("utf-8")


def _percent_rows(table):
    """The reference bytes of a table's rows: Python's % with %.17e, the
    formatter behind np.savetxt."""
    rows, cols = table.shape
    return ((",".join(["%.17e"] * cols) + "\n") * rows % tuple(table.ravel().tolist())).encode()


def _kernel_cases():
    """float64 values that probe every branch of the digit kernel."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    near = [powers]
    up, down = powers, powers
    for _ in range(30):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        near += [up, down]
    # bit patterns: every exponent, subnormals, infinities and NaNs included
    bits = np.random.default_rng(14).integers(0, 2 ** 64, 1 << 20, dtype=np.uint64)
    # exact ties at 18 digits: x = m 2^-(k+1) with m odd and m 5^k / 2 in
    # [1e17, 1e18), so that x 10^k ends in .5
    ties = []
    for k in range(2, 27):
        lo, hi = -(-2 * 10 ** 17 // 5 ** k), min((2 * 10 ** 18 - 1) // 5 ** k + 1, 2 ** 53)
        ms = {(lo + (hi - lo) * j // 16) | 1 for j in range(16)}
        ties += [m * 2.0 ** -(k + 1) for m in sorted(ms) if m < hi]
    special = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-250, 1e250,
               9.999999999999999e99, 1e100, 1.5e-100, 2.0 ** -27, 1000000000000000.125]
    signed = np.concatenate(near + [ties, special])
    return np.concatenate([signed, -signed, bits.view(np.float64), [np.inf, -np.inf, np.nan]])


def test_csv_kernel_writes_the_bytes_of_percent(tmp_path):
    """The numpy digit kernel behind write_csv_table writes exactly the bytes
    of %.17e: on the 1..30-ulp neighbours of every power of ten in
    1e-300..1e300, on 2^20 random bit patterns, on exact ties, signed zeros,
    3-digit exponents, the largest double and the non-finite values, all with
    either sign; and it returns the sha256 of what it wrote."""
    import hashlib

    from affinekit.runner import write_csv_table

    values = _kernel_cases()
    values = np.concatenate([values, np.zeros(-len(values) % 8)])
    for start in range(0, len(values), 8 << 14):
        table = values[start:start + (8 << 14)].reshape(-1, 8)
        digest = write_csv_table(tmp_path / "k.csv", list("abcdefgh"),
                                 [table[:, :3], table[:, 3:]])
        written = (tmp_path / "k.csv").read_bytes()
        assert written == b"a,b,c,d,e,f,g,h\n" + _percent_rows(table), start
        assert digest == hashlib.sha256(written).hexdigest()


def test_csv_table_rows_around_the_chunk(tmp_path):
    """Tables of 0, 1, chunk - 1, chunk and chunk + 1 rows, and a row split
    into 1-D and (S, a, b) blocks, give the bytes of np.savetxt."""
    import io

    from affinekit.runner import _CSV_CHUNK, write_csv_table

    chunk = _CSV_CHUNK // 7  # rows of 7 values in one chunk
    for rows in (0, 1, chunk - 1, chunk, chunk + 1):
        rng = np.random.default_rng(rows)
        table = rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(-120, 120, (rows, 7))
        write_csv_table(tmp_path / "t.csv", list("abcdefg"),
                        [table[:, 0], table[:, 1:7].reshape(rows, 2, 3)])
        expected = io.StringIO()
        np.savetxt(expected, table, fmt="%.17e", delimiter=",", header="a,b,c,d,e,f,g",
                   comments="")
        assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode(), rows


def test_csv_table_with_special_values_on_every_chunk_edge(tmp_path):
    """A table of 7 columns over eight chunks, the last one partial, with NaN,
    +-inf, an exact tie (2^-27), 3-digit exponents and -0.0 rotated through
    the first and the last value of every chunk, so that each of them opens
    one chunk and ends another: the bytes of np.savetxt."""
    import io

    from affinekit.runner import _CSV_CHUNK, write_csv_table

    chunk = _CSV_CHUNK // 7  # rows of 7 values in one chunk
    shape = (7 * chunk + 3, 7)
    rng = np.random.default_rng(23)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    special = np.array([np.nan, np.inf, -np.inf, 2.0 ** -27, -1.25e123, -0.0, 7.5e-300])
    for k in range(7):
        table[k * chunk] = np.roll(special, k)
        table[(k + 1) * chunk - 1] = np.roll(special, k + 1)
    write_csv_table(tmp_path / "t.csv", list("abcdefg"), [table[:, :2], table[:, 2:]])
    expected = io.StringIO()
    np.savetxt(expected, table, fmt="%.17e", delimiter=",", header="a,b,c,d,e,f,g",
               comments="")
    assert (tmp_path / "t.csv").read_bytes() == expected.getvalue().encode()


def test_csv_columns_hold_what_their_names_say(tmp_path):
    """At n = 3, N = 2 every row of trajectory.csv is (t, z) of the run's
    Trajectory bit for bit (%.17e round-trips float64), and every column of
    trajectory.csv and charges.csv, found by header name, equals the value it
    names exactly: the phase columns against the scenario's initial bodies,
    the charge columns against noether_charges of each parsed sample."""
    from affinekit.dynamics import PhaseState, noether_charges, total_energy
    from affinekit.kinematics import SystemConfig
    from affinekit.kinetics import MomentumState

    n, N = 3, 2
    rng = np.random.default_rng(7)
    bodies = [{"x": (3.0 * K + 0.1 * rng.standard_normal(n)).tolist(),
               "phi": (np.eye(n) + 0.1 * rng.standard_normal((n, n))).tolist(),
               "p": (0.2 * rng.standard_normal(n)).tolist(),
               "pi": (0.2 * rng.standard_normal((n, n))).tolist()} for K in range(N)]
    d = {
        "schema_version": 1, "n": n, "N": N,
        "kinetic": {"translational": "dalembert", "internal": "af-af"},
        "inertia": {"M": 1.0, "A": 1.0, "B": 1.0},
        "potential": {"binary": [{"arg": "D", "fn": {"kind": "harmonic",
                                                     "stiffness": 0.3, "center": 2.0}}]},
        "initial": {"bodies": bodies},
        "integrator": {"dt": 0.01, "T": 0.05},
    }
    s = scenario_from_dict(d)
    summary = run(s, tmp_path)
    traj = _read_columns(tmp_path / "trajectory.csv")
    charges = _read_columns(tmp_path / "charges.csv")
    S = summary["steps"] + 1
    assert S == 6 and len(traj["t"]) == len(charges["t"]) == S
    np.testing.assert_array_equal(charges["t"], traj["t"])
    assert traj["t"][-1] == summary["final_time"]

    # a row is (t, z): the phase vector in _split's layout, written once
    trajectory = integrate(s.model, s.params, s.potential, s.initial_state(), dt=s.dt, T=s.T)
    rows = np.stack(list(traj.values()), axis=1)
    assert rows.tobytes() == np.column_stack([trajectory.times, trajectory.z]).tobytes()
    assert "E" not in traj and "detphi_1" not in traj

    # per-body phase columns; pi{K}[a][i] is pi[a, i]
    assert traj["x2[1]"][0] == bodies[1]["x"][1]
    assert traj["phi2[0][2]"][0] == bodies[1]["phi"][0][2]
    assert traj["pi1[2][0]"][0] == bodies[0]["pi"][2][0]
    assert traj["p2[2]"][0] == bodies[1]["p"][2]
    x = _gather(traj, lambda K, i: f"x{K + 1}[{i}]", (N, n))
    phi = _gather(traj, lambda K, i, j: f"phi{K + 1}[{i}][{j}]", (N, n, n))
    p = _gather(traj, lambda K, i: f"p{K + 1}[{i}]", (N, n))
    pi = _gather(traj, lambda K, a, i: f"pi{K + 1}[{a}][{i}]", (N, n, n))
    for arr, ref in ((x, s.initial.config.x), (phi, s.initial.config.phi),
                     (p, s.initial.mom.p), (pi, s.initial.mom.pi)):
        np.testing.assert_array_equal(arr[0], ref)
        assert not np.array_equal(arr[-1], arr[0])

    for k in range(S):
        state = PhaseState(config=SystemConfig(x=x[k], phi=phi[k]),
                           mom=MomentumState(p=p[k], pi=pi[k]), time=traj["t"][k])
        c = noether_charges(state, total_energy(s.model, s.params, s.potential, state))
        assert charges["E"][k] == c.energy
        for i in range(n):
            assert charges[f"p[{i}]"][k] == c.p_total[i]
        for a, b in np.ndindex(n, n):
            assert charges[f"Sigma[{a}][{b}]"][k] == c.sigma_total[a, b]
            assert charges[f"SigmaHat[{a}][{b}]"][k] == c.sigma_hat_total[a, b]
            assert charges[f"J[{a}][{b}]"][k] == c.j_total[a, b]
            for K in range(N):
                assert charges[f"S{K + 1}[{a}][{b}]"][k] == c.spin[K, a, b]
                assert charges[f"V{K + 1}[{a}][{b}]"][k] == c.vorticity[K, a, b]
        for K in range(N):
            assert charges[f"detphi_{K + 1}"][k] == c.det_phi[K]
            for a in range(n):
                assert charges[f"q{K + 1}[{a}]"][k] == c.q_log[K, a]
    assert charges["S2[0][1]"][-1] != 0.0 and charges["V1[1][2]"][-1] != 0.0
    assert charges["q2[1]"][-1] != 0.0


def test_bundled_geodetic_run_conserves_energy(tmp_path):
    """Full bundled run: artifacts exist and the drift field is tiny."""
    sc = parse_scenario(bundled_scenario_path("afaf_geodetic_gl2"))
    summary = run(sc, tmp_path / "out")
    assert summary["drifts"]["energy"] <= 1e-8
    assert summary["drifts"]["sigma_total"] <= 1e-8
    assert summary["drifts"]["sigma_hat_total"] <= 1e-8


# ---------------------------------------------------------------------------
# command-line interface

def test_cli_unknown_suite_is_usage_error(capsys):
    assert cli_main(["check", "nonsense"]) == 64
    assert "nonsense" in capsys.readouterr().err


def test_cli_run_and_determinism(tmp_path, capsys):
    scenario_path = tmp_path / "scn.json"
    scenario_path.write_text(json.dumps(_short_scenario()))
    code = cli_main(["run", str(scenario_path), "--out", str(tmp_path / "o1")])
    assert code == 0
    out1 = capsys.readouterr().out
    assert json.loads(out1)["exit_code"] == 0
    code = cli_main(["run", str(scenario_path), "--out", str(tmp_path / "o2")])
    assert code == 0
    for name in ("trajectory.csv", "charges.csv", "summary.json"):
        assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


def test_cli_spectrum_json_and_csv(tmp_path, capsys):
    code = cli_main(["spectrum", "--alpha", "1.0", "--potential", "harmonic:1.0",
                     "--qmin", "-10", "--qmax", "10", "--points", "1500",
                     "--levels", "3", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["levels"]) == 3
    np.testing.assert_allclose(report["levels"], [0.5, 1.5, 2.5], rtol=1e-3)
    defects = report["defects"]
    assert set(defects) == {"sigma_haar", "sigma_corrected_lebesgue", "momentum_p_lebesgue"}
    assert max(defects.values()) <= 1e-10
    lines = (tmp_path / "rho.csv").read_text().splitlines()
    assert lines[0] == "q,rho_0,rho_1,rho_2"
    assert len(lines) == 1501


def test_cli_measure_check(capsys):
    code = cli_main(["measure-check", "--n", "2", "--points", "20", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["exponent_e"] == 1
    assert report["max_rel_err"] <= 1e-6


def test_cli_entrypoint_subprocess(tmp_path, child_env):
    """The installed console script path works end to end."""
    scenario_path = tmp_path / "scn.json"
    scenario_path.write_text(json.dumps(_short_scenario(T=0.01)))
    proc = subprocess.run(
        [sys.executable, "-m", "affinekit.cli", "run", str(scenario_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["aborted"] is False


@pytest.mark.parametrize("n", [2, 3])
def test_an_initial_phi_with_an_overflowing_det_is_a_validation_error(n, tmp_path,
                                                                      child_env):
    """phi = 1e200 Id has finite entries and det = inf: `affinekit run` exits
    1 with the typed error naming initial.bodies[0].phi, before the output
    directory is made, and nothing else reaches stderr (no numpy warning)."""
    d = {**MINIMAL, "n": n, "inertia": {"M": 1.0, "J": np.eye(n).tolist()},
         "initial": {"bodies": [{"x": [0.0] * n, "phi": (1e200 * np.eye(n)).tolist()}]}}
    (tmp_path / "s.json").write_text(json.dumps(d))
    proc = subprocess.run(
        [sys.executable, "-m", "affinekit.cli", "run", str(tmp_path / "s.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 1
    assert proc.stderr == ("error: 'initial.bodies[0].phi' must have a finite det > 1e-12, "
                           "got inf\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", ["what:1", "harmonic:abc", "harmonic:nan", "poly:0,inf",
                                  "zero:5"])
def test_cli_bad_potential_spec_usage_error(spec, tmp_path, capsys):
    """An unknown kind, a non-numeric, non-finite or surplus argument exits 64
    naming the spec, before the output directory is made."""
    assert cli_main(["spectrum", "--potential", spec, "--out", str(tmp_path / "o")]) == 64
    assert repr(spec) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,bound", [(["--levels", "0"], 3998),
                                        (["--levels", "-1"], 3998),
                                        (["--points", "16", "--levels", "20"], 14)])
def test_cli_spectrum_levels_out_of_range_is_a_usage_error(tmp_path, capsys, argv, bound):
    """--levels outside 1..points - 2 exits 64 naming the flag and the bound,
    before the grid is built, and writes no density CSV."""
    assert cli_main(["spectrum", *argv, "--out", str(tmp_path)]) == 64
    err = capsys.readouterr().err
    assert "--levels" in err and f"= {bound}," in err
    assert not (tmp_path / "rho.csv").exists()


def _cli_levels(capsys, *argv):
    assert cli_main(["spectrum", *argv]) == 0
    return np.array(json.loads(capsys.readouterr().out)["levels"])


def test_cli_spectrum_zero_potential_gives_the_dirichlet_stencil_levels(tmp_path, capsys):
    """With V = 0 the operator is the Dirichlet stencil, whose levels are
    2 kin (1 - cos(j pi / (m - 1))), kin = hbar^2 / (2 alpha h^2), j = 1..."""
    m, alpha, hbar = 40, 2.0, 0.5
    levels = _cli_levels(capsys, "--potential", "zero", "--qmin", "-1", "--qmax", "1",
                         "--points", str(m), "--levels", "4", "--alpha", str(alpha),
                         "--hbar", str(hbar), "--out", str(tmp_path))
    kin = hbar ** 2 / (2.0 * alpha * (2.0 / (m - 1)) ** 2)
    exact = 2.0 * kin * (1.0 - np.cos(np.arange(1, 5) * np.pi / (m - 1)))
    np.testing.assert_allclose(levels, exact, rtol=1e-12)


def test_cli_spectrum_poly_potential_matches_harmonic(tmp_path, capsys):
    """poly:0,0,0.5 is the harmonic:1.0 potential written as a polynomial."""
    common = ["--points", "400", "--levels", "5", "--out", str(tmp_path)]
    poly = _cli_levels(capsys, "--potential", "poly:0,0,0.5", *common)
    harmonic = _cli_levels(capsys, "--potential", "harmonic:1.0", *common)
    np.testing.assert_allclose(poly, harmonic, rtol=1e-12)


@pytest.mark.parametrize("flag,value,field", [("--qmin", "-inf", "q_min"),
                                              ("--qmax", "nan", "q_max"),
                                              ("--hbar", "inf", "hbar"),
                                              ("--alpha", "nan", "alpha_eff")])
def test_cli_spectrum_rejects_non_finite_grid_values(tmp_path, capsys, flag, value, field):
    """A non-finite grid value is an error naming the field, raised before
    any arithmetic on it could warn."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["spectrum", f"{flag}={value}", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{field} must be finite" in err
    assert "RuntimeWarning" not in err
    assert not (tmp_path / "rho.csv").exists()


@pytest.mark.parametrize("argv,field", [(["--qmax", "800", "--points", "2000"], "q_max"),
                                        (["--qmin", "-800", "--qmax", "-10",
                                          "--potential", "zero"], "q_min")])
def test_cli_spectrum_rejects_a_grid_whose_exponential_overflows(tmp_path, capsys, argv, field):
    """e^q or e^-q overflowing on the grid is an error naming the bound, raised
    before a Hermiticity defect could read 0.0 after numpy's warnings."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["spectrum", *argv, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} = ") and "overflows" in err
    assert "Warning" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bounds,found", [
    (["--qmin", "-709", "--qmax", "-700"], "momentum_p under the lebesgue measure on q in "
                                           r"\[-709.0, -700.0\]: the defect is nan"),
    (["--qmin", "700", "--qmax", "709.7"], "Sigma_corrected under the lebesgue measure on q in "
                                           r"\[700.0, 709.7\]: a test function's weighted "
                                           "norm is inf")], ids=["nan_defect", "inf_norm"])
def test_cli_spectrum_rejects_a_hermiticity_defect_that_overflows(tmp_path, capsys, bounds,
                                                                   found):
    """Just inside the overflow bounds, e^-q f' overflows into a NaN defect
    and the bumps' e^q-weighted norms overflow to inf: one error line naming
    the measure and the grid, no numpy warning, no NaN and no output."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["spectrum", *bounds, "--points", "2000", "--potential", "zero",
                         "--out", str(tmp_path / "o")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert re.match("error: hermiticity check of " + found, err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,found", [
    pytest.param(["--potential", "harmonic:1e308", "--points", "200"],
                 r"the potential gives a diagonal 2 kin \+ V\(q\) = inf, not finite, "
                 r"at q = -9\.89", id="potential"),
    pytest.param(["--alpha", "1e-320"], r"the kinetic constant .* is inf, .* at "
                                        r"alpha_eff = 1e-320, hbar = 1\.0 and h = ", id="alpha"),
    pytest.param(["--hbar", "1e200"], r"the kinetic constant .* is inf, .* at "
                                      r"alpha_eff = 1\.0, hbar = 1e\+200 and h = ", id="hbar"),
])
def test_cli_spectrum_rejects_a_hamiltonian_that_overflows(tmp_path, capsys, argv, found):
    """A potential or a kinetic constant hbar^2 / (2 alpha_eff h^2) that
    overflows is one error line naming the potential or alpha_eff and hbar:
    no numpy warning, no OverflowError from float arithmetic, no output."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(["spectrum", *argv, "--out", str(tmp_path / "o")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert re.match("error: " + found, err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("suite", ["legendre", "invariance", "brackets",
                                   "measures", "qdesk"])
def test_check_suite_report_shape(suite, capsys):
    code = cli_main(["check", suite])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == suite
    assert report["passed"] is True
    assert all({"name", "max_error", "tolerance", "passed"} <= set(c) for c in report["checks"])


def test_scenario_output_dir_used_as_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    d = _short_scenario(T=0.01)
    d["output"] = {"dir": "from_file"}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(d))
    assert cli_main(["run", str(path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "from_file" / "trajectory.csv").exists()
    s = parse_scenario(path)
    assert s.out_dir == "from_file"


def test_suite_reports_are_reproducible():
    """Two runs of a suite, or of a measure-check, give identical reports."""
    from affinekit.checks import SUITES, run_suite
    from affinekit.measures import measure_check_report

    for suite in SUITES:
        assert run_suite(suite) == run_suite(suite)
    for n in (1, 2, 3):
        assert measure_check_report(n, points=20, seed=5) \
            == measure_check_report(n, points=20, seed=5)


# sha256 of the stdout of each command line (numpy 2.4, x86-64): a change that
# moves any draw changes these.  The brackets report is recorded with the
# brackets evaluated as whole tables.  The invariance, legendre and measures
# reports and the n = 2 and 3 measure-check reports are recorded with every
# sample drawn as a stack: they depend on the block schedule, the candidate
# blocks ``random_glplus``/``random_invertible`` draw for ``size=S`` (4 x the
# matrices still missing) and measure-check's blocks of q and chart angles
# (2 x the points still missing), and on each family's order of draws.  The
# n = 1 measure-check draws q alone with no rejection, so it kept its bytes.
PINNED_REPORTS = {
    ("check", "brackets"):
        "45de0006aafac02ff111c5a930be012e1a621ca20bc6491da6b59a76993fa105",
    ("check", "qdesk"):
        "51d448162632687a585dd9de503fe3d3fdf08bce067785bdd998543ec13879e1",
    ("check", "invariance"):
        "195ce5ba966b6e5537dbd0b21942508e796b797f7f5f5d05ee0719059c1e2a05",
    ("check", "legendre"):
        "b81dec4da207a5aba52f6cb790de85a102edc8eba97fa6d307c7959f7af16b2a",
    ("check", "measures"):
        "08406460fe6bd3f4221ff2183748662f5a86d7dc00baead14b1671e913055c6e",
    ("measure-check", "--n", "1", "--seed", "12345"):
        "d332690972f8ba300084a688c352dc1cb63ecca9660e46b1270e14f682900adc",
    ("measure-check", "--n", "2", "--seed", "12345"):
        "3af84f2f3c141ca015dd7c5bdc473069ffb34b6b7d421fc2f835e6da379374b2",
    ("measure-check", "--n", "3", "--seed", "12345"):
        "f444981faa83f46e35b48220ecba3fbf2f7fda107e954594636797671b5e673e",
}


# sha256 of the stdout of the default `affinekit spectrum` (numpy 2.4, scipy
# 1.17, x86-64): its five levels and its three Hermiticity defects on the
# 4000-point grid, a grid the qdesk suite's Hermiticity check does not use.
PINNED_SPECTRUM_REPORT = "e045eeb43adc35e283c0e0dbc24ed47208afd7745c0f170db5a1b3b459418c91"


def test_spectrum_report_equals_the_pinned_bytes(tmp_path, capsys):
    import hashlib

    assert cli_main(["spectrum", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SPECTRUM_REPORT


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=" ".join)
def test_check_reports_equal_the_pinned_bytes(argv, capsys):
    import hashlib

    assert cli_main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[argv]


def test_sampled_checks_pass_with_a_tenfold_margin():
    """New draws must not pass only narrowly: every sampled check stays at a
    tenth of its tolerance or below, and each measure-check fit is sharp."""
    from affinekit.checks import run_suite
    from affinekit.measures import measure_check_report

    for suite in ("invariance", "legendre", "measures"):
        for check in run_suite(suite)["checks"]:
            assert check["max_error"] <= 0.1 * check["tolerance"], (suite, check)
    for n in (1, 2, 3):
        report = measure_check_report(n, seed=12345)
        assert report["exponent_e"] == 1 and report["points"] == 100
        assert report["max_rel_err"] <= 1e-8, report


def test_an_overflowing_window_start_lets_no_warning_out(tmp_path, child_env):
    """x = 1e308 overflows the first position midpoints of a window; the run
    still exits 0 and no numpy RuntimeWarning reaches stderr."""
    d = _bundled_dict("afaf_dilatation_stabilized")
    d["initial"]["bodies"][0]["x"] = [1e308, 0.0]
    d["integrator"]["T"] = 3 * d["integrator"]["dt"]
    (tmp_path / "s.json").write_text(json.dumps(d))
    proc = subprocess.run(
        [sys.executable, "-m", "affinekit.cli", "run", str(tmp_path / "s.json"),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env=child_env)
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("T", [1e308, 1e300])
def test_a_run_too_long_to_hold_is_a_validation_error(T, tmp_path, capsys):
    """T / dt infinite (1e308) or (steps + 1) x D floats beyond numpy's
    largest array (1e300) is a parse-time error naming integrator.T, raised
    before the output directory is made."""
    d = _bundled_dict("two_body_affine_pair")
    d["integrator"]["T"] = T
    (tmp_path / "s.json").write_text(json.dumps(d))
    with pytest.raises(ValidationError, match="'integrator.T'"):
        scenario_from_dict(d)
    assert cli_main(["run", str(tmp_path / "s.json"), "--out", str(tmp_path / "out")]) == 1
    assert "'integrator.T'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_run_too_long_for_memory_names_its_field(tmp_path, capsys):
    """T = 1e14 passes the index-range test, but its (steps + 1) x D sample
    array (4.8e18 bytes) cannot be allocated: the run exits 1 with one error
    line naming integrator.T, the step count and the bytes, and makes no
    output directory."""
    d = _bundled_dict("afaf_dilatation_stabilized")
    d["integrator"]["T"] = 1e14
    (tmp_path / "s.json").write_text(json.dumps(d))
    assert cli_main(["run", str(tmp_path / "s.json"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: 'integrator.T': T = 100000000000000.0")
    assert "49999999999950000 steps" in err and f"{49999999999950001 * 12 * 8} bytes" in err
    assert not (tmp_path / "out").exists()


def test_integrate_names_a_run_too_long_for_memory_in_its_own_terms():
    """integrate takes T as an argument: its MemoryError names T, not the
    scenario field, and is still a MemoryError."""
    d = _bundled_dict("afaf_dilatation_stabilized")
    d["integrator"]["T"] = 1e14
    sc = scenario_from_dict(d)
    with pytest.raises(RunTooLong, match=r"^T = 100000000000000\.0 takes 49999999999950000 "
                                         r"steps of dt = 0\.002") as info:
        integrate(sc.model, sc.params, sc.potential, sc.initial_state(), dt=sc.dt, T=sc.T,
                  method=sc.method)
    assert isinstance(info.value, MemoryError)


# sha256 of the CSV artifacts, recorded while every value was formatted by
# Python's %, the formatter behind np.savetxt (numpy 2.4, x86-64); each
# trajectory.csv, recorded later, has column for column the bytes of the
# phase columns of such a file.  Each bundled scenario runs 300 steps, so
# windowed midpoint solves form; the spectrum is the default
# `affinekit spectrum`.  The n = 2 files below were re-recorded when det phi
# and phi^-1 at n <= 2 moved from LAPACK to the closed form.  All but
# dalembert_free_internal were re-recorded again when windows of 16 steps or
# more began to start from the degree-7 polynomial through every 8th sample
# and the stop test took each step's scale from the iterate; their values
# moved by at most 2.2e-16.  The charges.csv pins of the four n = 2 files
# were re-recorded when the singular values behind q{K} at n <= 2 moved from
# LAPACK to the closed form; only the q{K} columns moved, by at most 6.7e-16.
# harmonic_oscillator, a separable run, was re-recorded when separable
# windows began to sweep the positions and then the momenta; its values moved
# by at most 2.4e-16.  dalembert_free_internal, separable too, kept its bytes.
# The three non-separable files were re-recorded when every model began to
# sweep that way; their trajectory.csv values moved by at most 6.7e-16
# (4.7e-16 of the largest |z|) and their charges.csv values by at most
# 8.9e-16.  The two separable files kept their bytes.
PINNED_ARTIFACTS = {
    "harmonic_oscillator": (
        "d217b41db7726580819c613160bdcf66186812982022f6f0cdabd68e1d680e11",
        "8cf5131451cc5fadc0145c0c6dcc90365e56b73702eff4148ef29420e760f499"),
    "dalembert_free_internal": (
        "e8462a039db200fabdfc49a547add529f8db3f22d773345652ec73e9515d723c",
        "2b300a1c0d5a6bd5e4b3d4f73feb460f9d2424c9b56d4bf00ed3a948a7e2c77d"),
    "afaf_geodetic_gl2": (
        "ff4024c5c19a98f574297543098d546a957cebcb9e4129ad762fae56f15313fc",
        "ae8fc4319ccbe982fc657f7bb1ad15b5921c40b0fd06e797174b08576d7f636a"),
    "afaf_dilatation_stabilized": (
        "2d27041f7299ff2d9926f2d32725198ee119289d1b69fa5c715db9963cd8c64d",
        "a2be26235d7ec0683c08327c9a02e36f5a36b97c4a58a3518e8e0a21a4c396f9"),
    "two_body_affine_pair": (
        "32307cab1e6f572c947cf26864a64a7ec9f13bb73f1915f15a1320b99223d409",
        "056719b4b71b9aedce19f2e4f7e50ddbd972851b1863cd121693d280391f1311"),
}
PINNED_RHO_CSV = "87cef4b06433ffe52dd18a54c51c0d77feb19a28db7f99d306c10a483f4f6036"


@pytest.mark.parametrize("name", BUNDLED)
def test_run_artifacts_equal_the_pinned_bytes(name, tmp_path):
    """trajectory.csv and charges.csv of a 300-step bundled run keep their
    pinned bytes, and determinism_hash is the sha256 of trajectory.csv as
    written."""
    import hashlib

    d = _bundled_dict(name)
    d["integrator"]["T"] = 300 * d["integrator"]["dt"]
    summary = run(scenario_from_dict(d), tmp_path)
    assert summary["steps"] == 300
    hashes = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                   for f in ("trajectory.csv", "charges.csv"))
    assert hashes == PINNED_ARTIFACTS[name]
    assert summary["determinism_hash"] == "sha256:" + hashes[0]


def test_spectrum_rho_csv_equals_the_pinned_bytes(tmp_path, capsys):
    import hashlib

    assert cli_main(["spectrum", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((tmp_path / "rho.csv").read_bytes()).hexdigest() == PINNED_RHO_CSV


def test_summary_min_det_phi_is_the_charges_minimum(tmp_path):
    """summary.json's min_det_phi is the smallest det phi over every sample
    and body: the minimum of the detphi_K columns of charges.csv."""
    d = _bundled_dict("two_body_affine_pair")
    d["integrator"]["T"] = 0.2
    summary = run(scenario_from_dict(d), tmp_path)
    columns = _read_columns(tmp_path / "charges.csv")
    dets = np.stack([columns["detphi_1"], columns["detphi_2"]])
    assert summary["min_det_phi"] == dets.min()
    assert json.loads((tmp_path / "summary.json").read_text())["min_det_phi"] == dets.min()


def test_main_runs_different_subcommands_in_one_process(capsys):
    """The parser is built once per process; each main call still parses its
    own command line, and usage errors exit 64, argparse's included."""
    from affinekit.cli import build_parser

    assert build_parser() is build_parser()
    assert cli_main(["measure-check", "--n", "1", "--points", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == 3
    assert cli_main(["check", "nonsense"]) == 64
    assert cli_main(["measure-check", "--n", "2", "--points", "4", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 2 and report["points"] == 4
    with pytest.raises(SystemExit) as exc:
        cli_main(["spectrum", "--levels", "many"])
    assert exc.value.code == 64
    assert cli_main(["spectrum", "--potential", "what:1"]) == 64
    assert cli_main(["check", "brackets"]) == 0


def test_relative_error_keeps_each_sample_scale():
    """A sample with a large reference does not mask another sample's error:
    the scale is 1 + max|ref| of each sample, not of the whole stack."""
    from affinekit.checks import _rel

    ref = np.array([[1e6, 0.0], [1.0, 0.5]])
    delta = np.array([[1e-3, 0.0], [1e-6, 0.0]])
    assert _rel(delta, ref) == 1e-6 / 2.0
    assert _rel(delta[:1], ref[:1]) == 1e-3 / (1.0 + 1e6)


@pytest.mark.parametrize("points", ["0", "-3"])
def test_cli_measure_check_rejects_empty_point_sets(points, capsys):
    import warnings

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["measure-check", "--n", "2", "--points", points])
    assert code == 1
    err = capsys.readouterr().err
    assert "points must be at least 1" in err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_per_body_inertia_scenario_end_to_end(tmp_path):
    """Heterogeneous species run through parsing, integration, and export."""
    d = {
        "schema_version": 1, "n": 2, "N": 2,
        "kinetic": {"translational": "dalembert", "internal": "dalembert"},
        "inertia": {"per_body": [
            {"M": 1.0, "J": [[1.0, 0.0], [0.0, 1.0]]},
            {"M": 4.0, "J": [[2.0, 0.0], [0.0, 2.0]]},
        ]},
        "initial": {"bodies": [
            {"x": [0.0, 0.0], "phi": [[1.0, 0.0], [0.0, 1.0]], "p": [1.0, 0.0]},
            {"x": [2.0, 0.0], "phi": [[1.0, 0.0], [0.0, 1.0]], "p": [1.0, 0.0]},
        ]},
        "integrator": {"dt": 0.01, "T": 1.0},
    }
    s = scenario_from_dict(d)
    summary = run(s, tmp_path / "out")
    assert summary["exit_code"] == 0
    # free motion: the heavy body moves at a quarter of the light one's speed
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    last = [float(v) for v in rows[-1].split(",")]
    header = rows[0].split(",")
    x1 = last[header.index("x1[0]")]
    x2 = last[header.index("x2[0]")]
    assert abs(x1 - 1.0) <= 1e-10
    assert abs(x2 - 2.25) <= 1e-10
    back = parse_scenario_roundtrip(s, tmp_path)
    assert isinstance(back.params, tuple) and len(back.params) == 2


def parse_scenario_roundtrip(s, tmp_path):
    path = tmp_path / "rt.json"
    serialize_scenario(s, path)
    back = parse_scenario(path)
    assert scenario_to_dict(back) == scenario_to_dict(s)
    return back


def test_all_scalar_fn_kinds_roundtrip(tmp_path):
    d = {
        "schema_version": 1, "n": 2, "N": 2,
        "kinetic": {"translational": "dalembert", "internal": "dalembert"},
        "inertia": {"M": 1.0, "J": [[1.0, 0.0], [0.0, 1.0]]},
        "potential": {
            "one_body": [
                {"kind": "harmonic_x", "stiffness": 0.5, "center": [0.1, 0.2]},
                {"kind": "invariant", "a": 2,
                 "fn": {"kind": "poly", "coeffs": [0.0, 0.1, 0.2], "shift": 2.0}},
            ],
            "binary": [
                {"arg": "r", "fn": {"kind": "lj", "epsilon": 0.3, "sigma": 1.2}},
                {"arg": "D", "fn": {"kind": "harmonic_log", "stiffness": 0.4, "ref": 1.1}},
                {"arg": "K:1", "fn": {"kind": "harmonic", "stiffness": 0.2, "center": 2.0}},
                {"arg": "Mbar:2", "fn": {"kind": "poly", "coeffs": [0.0, 0.5], "shift": 2.0}},
            ],
            "dilatation": {"kappa": 0.7, "d_ref": 1.3},
        },
    }
    s = scenario_from_dict(d)
    assert len(s.potential.one_body) == 2
    assert len(s.potential.binary) == 4
    assert s.potential.dil.kappa == 0.7
    parse_scenario_roundtrip(s, tmp_path)


def test_scenario_dump_has_the_pinned_format():
    """The dump of a parsed scenario is an explicit dict: every key named,
    every default filled in, every sequence a list, and inertia keys the
    model does not use (the second body's J and H) kept.  Comparing one dump
    with another, as the round trips above do, cannot see a renamed key, a
    tuple or an int written for a float."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    d = {
        "schema_version": 1, "name": "format_pin", "n": 2, "N": 2,
        "kinetic": {"translational": "is-af", "internal": "af-af"},
        "inertia": {"per_body": [{"M": 1.0, "I": 6.0, "A": 1.0, "B": 1.0},
                                 {"M": 2.0, "A": 0.5, "B": 2.0, "J": eye, "H": eye}]},
        "potential": {
            "one_body": [
                {"kind": "harmonic_x", "stiffness": 0.5, "center": [0.1, 0.2]},
                {"kind": "harmonic_x", "stiffness": 2.0},
                {"kind": "invariant", "a": 1, "fn": {"kind": "harmonic", "stiffness": 0.3}},
                {"kind": "invariant", "a": 2, "fn": {"kind": "poly", "coeffs": [0, 1.5]}},
            ],
            "binary": [
                {"arg": "r", "fn": {"kind": "lj", "epsilon": 0.3, "sigma": 1.2}},
                {"arg": "D", "fn": {"kind": "harmonic_log", "stiffness": 0.4}},
                {"arg": "Mbar:2", "fn": {"kind": "poly", "coeffs": [0.0, 0.5], "shift": 2.0}},
            ],
            "dilatation": {"kappa": 0.7},
        },
        "initial": {"generate": {"scale": 0.1}},
        "integrator": {"dt": 0.01},
        "output": {"dir": "pinned_out"},
    }
    expected = {
        "schema_version": 1, "name": "format_pin", "n": 2, "N": 2,
        "kinetic": {"translational": "is-af", "internal": "af-af"},
        "inertia": {"per_body": [{"M": 1.0, "I": 6.0, "A": 1.0, "B": 1.0},
                                 {"M": 2.0, "A": 0.5, "B": 2.0, "J": eye, "H": eye}]},
        "potential": {
            "one_body": [
                {"kind": "harmonic_x", "stiffness": 0.5, "center": [0.1, 0.2]},
                {"kind": "harmonic_x", "stiffness": 2.0, "center": []},
                {"kind": "invariant", "a": 1,
                 "fn": {"kind": "harmonic", "stiffness": 0.3, "center": 0.0}},
                {"kind": "invariant", "a": 2,
                 "fn": {"kind": "poly", "coeffs": [0.0, 1.5], "shift": 0.0}},
            ],
            "binary": [
                {"arg": "r", "fn": {"kind": "lj", "epsilon": 0.3, "sigma": 1.2}},
                {"arg": "D", "fn": {"kind": "harmonic_log", "stiffness": 0.4, "ref": 1.0}},
                {"arg": "Mbar:2", "fn": {"kind": "poly", "coeffs": [0.0, 0.5], "shift": 2.0}},
            ],
            "dilatation": {"kappa": 0.7, "d_ref": 1.0},
        },
        "initial": {"generate": {"scale": 0.1}},
        "integrator": {"method": "implicit_midpoint", "dt": 0.01, "T": 1.0},
        "seed": 0,
        "output": {"dir": "pinned_out"},
    }
    dump = scenario_to_dict(scenario_from_dict(d))
    assert dump == expected
    assert json.dumps(dump, sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_bundled_qdesk_config_reproduces_spectrum():
    """The shipped 1-d spectral configuration resolves the first harmonic
    levels at its stated grid."""
    from affinekit.qdesk import QGrid, build_hamiltonian_1d, solve_spectrum

    cfg = json.loads(bundled_scenario_path("qdesk_harmonic").read_text())
    kind, _, value = cfg["potential"].partition(":")
    assert kind == "harmonic"
    k = float(value)
    grid = QGrid(q_min=cfg["q_min"], q_max=cfg["q_max"], m=cfg["points"],
                 hbar=cfg["hbar"], alpha_eff=cfg["alpha_eff"])
    energies, _ = solve_spectrum(build_hamiltonian_1d(grid, lambda q: 0.5 * k * q * q),
                                 cfg["levels"])
    omega = np.sqrt(k / cfg["alpha_eff"])
    exact = cfg["hbar"] * omega * (np.arange(cfg["levels"]) + 0.5)
    assert np.max(np.abs(energies - exact) / exact) <= 1e-4
