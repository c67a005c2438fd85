"""Scenario files: JSON schema, validation, round-trip serialization.

Schema (version 1)::

    {
      "schema_version": 1,
      "name": "...",                      # optional
      "n": 2, "N": 1,
      "kinetic": {"translational": "dalembert", "internal": "af-af"},
      "inertia": {"M": 1.0, "J": [[...]], "I": ..., "A": ..., "B": ...,
                  "H": [[...]], "Lten": [[...]], "Rten": [[...]]}
          or     {"per_body": [ {...}, ... ]}        # heterogeneous bodies
      "potential": {"one_body": [...], "binary": [...], "dilatation": {...}},
      "initial": {"bodies": [{"x": [...], "phi": [[...]],
                              "p": [...], "pi": [[...]]}]}
          or     {"generate": {"scale": 0.2}}        # drawn from the run seed
      "integrator": {"method": "implicit_midpoint", "dt": 1e-3, "T": 1.0},
      "seed": 0
    }

Required keys: n, N, kinetic.translational, kinetic.internal, inertia.
Defaults: method implicit_midpoint, dt 1e-3, T 1.0, seed 0, empty potential,
generated initial state with scale 0.2.

One-body potential terms::

    {"kind": "harmonic_x", "stiffness": 1.0, "center": [0, 0]}
    {"kind": "invariant", "a": 1, "fn": {"kind": "harmonic", "stiffness": 1.0,
                                         "center": 2.0}}

Binary terms::

    {"arg": "r" | "D" | "K:a" | "Mbar:a", "fn": { ... scalar fn ... }}

Scalar fn kinds: poly (coeffs, shift), harmonic (stiffness, center),
harmonic_log (stiffness, ref), lj (epsilon, sigma).  Term, scalar fn and
inertia keys are the fields and defaults of the dataclasses in ``potentials``
and ``kinetics``, and the dump is derived from those dataclasses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .dynamics import INTEGRATION_METHODS, PhaseState
from .errors import ParseError, ValidationError
from .kinematics import SystemConfig
from .kinetics import InertiaParams, KineticModel, MomentumState
from .matcore import DET_FLOOR, unchecked_det
from .potentials import (BinaryTerm, DilatationTerm, HarmonicFn, InvariantTerm,
                         LennardJonesFn, LogHarmonicFn, PolyFn, PotentialSpec,
                         TranslationalHarmonic)
from .sampling import rng_from_seed

SCHEMA_VERSION = 1
GENERATE_SCALE = 0.2                    # default spread of a generated initial state


@dataclass(frozen=True)
class Scenario:
    n: int
    N: int
    model: KineticModel
    params: object                      # InertiaParams or tuple of them
    potential: PotentialSpec
    initial: PhaseState | None          # None means: generate from seed
    generate_scale: float
    method: str
    dt: float
    T: float
    seed: int
    name: str = ""
    out_dir: str = ""                   # default artifact directory, CLI --out wins
    schema_version: int = SCHEMA_VERSION

    def initial_state(self) -> PhaseState:
        if self.initial is not None:
            return self.initial
        return generate_initial(self.n, self.N, self.seed, self.generate_scale)


def generate_initial(n: int, N: int, seed: int, scale: float = GENERATE_SCALE) -> PhaseState:
    """Deterministic random initial state near the identity configuration."""
    rng = rng_from_seed(seed)
    x = scale * rng.standard_normal((N, n))
    phi = np.stack([np.eye(n) + scale * rng.standard_normal((n, n)) for _ in range(N)])
    for K in range(N):
        while np.linalg.det(phi[K]) < 0.2:
            phi[K] = np.eye(n) + scale * rng.standard_normal((n, n))
    p = scale * rng.standard_normal((N, n))
    pi = scale * rng.standard_normal((N, n, n))
    return PhaseState(config=SystemConfig(x=x, phi=phi),
                      mom=MomentumState(p=p, pi=pi), time=0.0)


# ---------------------------------------------------------------------------
# dict -> domain objects

_REQUIRED = object()
_JSON_NAMES = {dict: "object", list: "array", str: "string"}


def _typed(value, kind: type, path: str):
    if not isinstance(value, kind):
        raise ValidationError(f"{path!r} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    return value


def _need(d, key: str, path: str):
    if key not in _typed(d, dict, path.rpartition(".")[0] or "scenario"):
        raise ValidationError(f"missing required key {path!r}")
    return d[key]


def _num(d, key: str, path: str, default=_REQUIRED, cast=float, minimum=None,
         positive: bool = False):
    """d[key] (default when given and the key is absent) as a finite float, or
    int with cast=int, at least ``minimum`` and, with ``positive``, above 0.
    A JSON number is required: booleans and strings are rejected, and so is
    a number the cast would change (2.5 for an int, but not 2.0)."""
    where = f"{path}.{key}" if path else key
    value = _need(d, key, where) if default is _REQUIRED \
        else _typed(d, dict, path or "scenario").get(key, default)
    try:
        out = cast(value)
        ok = not isinstance(value, (bool, str)) and out == value \
            and bool(np.isfinite(out)) and (minimum is None or out >= minimum) \
            and (not positive or out > 0)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bound = " > 0" if positive else "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{where!r} must be a finite {cast.__name__}{bound}, "
                              f"got {value!r}")
    return out


def _no_bool_or_str(value) -> bool:
    """False if a boolean or a string sits anywhere in nested JSON arrays,
    which np.asarray(..., dtype=float) would coerce to numbers."""
    if isinstance(value, list):
        return all(map(_no_bool_or_str, value))
    return not isinstance(value, (bool, str))


def _array(value, path: str, shape: tuple | None = None) -> np.ndarray:
    """value as a finite float array of ``shape``, or of any length if None.
    JSON numbers are required, as in _num: booleans and strings are rejected."""
    try:
        arr = np.asarray(value, dtype=float)
        ok = _no_bool_or_str(value) \
            and (arr.ndim == 1 if shape is None else arr.shape == shape) and np.isfinite(arr).all()
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValidationError(f"{path!r} must be a finite array of shape "
                              f"{shape or '(k,)'}, got {value!r}")
    return arr


def _scalar_fn_from_dict(d: dict, path: str):
    kind = _need(d, "kind", f"{path}.kind")
    if kind == "poly":
        return PolyFn(coeffs=tuple(_array(_need(d, "coeffs", f"{path}.coeffs"),
                                          f"{path}.coeffs").tolist()),
                      shift=_num(d, "shift", path, PolyFn.shift))
    if kind == "harmonic":
        return HarmonicFn(stiffness=_num(d, "stiffness", path),
                          center=_num(d, "center", path, HarmonicFn.center))
    if kind == "harmonic_log":
        return LogHarmonicFn(stiffness=_num(d, "stiffness", path),
                             ref=_num(d, "ref", path, LogHarmonicFn.ref, positive=True))
    if kind == "lj":
        return LennardJonesFn(epsilon=_num(d, "epsilon", path), sigma=_num(d, "sigma", path))
    raise ValidationError(f"unknown scalar function kind {kind!r} at {path!r}")


# the "kind" key of each term dataclass that is written with one
_KINDS = {PolyFn: "poly", HarmonicFn: "harmonic", LogHarmonicFn: "harmonic_log",
          LennardJonesFn: "lj", TranslationalHarmonic: "harmonic_x", InvariantTerm: "invariant"}


def _fields_to_dict(obj) -> dict:
    """A term or inertia dataclass as its scenario dict: its _KINDS entry, then
    every field that is not None, nested terms as dicts, sequences as lists."""
    out = {"kind": _KINDS[type(obj)]} if type(obj) in _KINDS else {}
    for f in fields(obj):
        val = getattr(obj, f.name)
        if is_dataclass(val):
            val = _fields_to_dict(val)
        elif isinstance(val, tuple):
            val = list(val)
        elif isinstance(val, np.ndarray):
            val = val.tolist()
        if val is not None:
            out[f.name] = val
    return out


def _potential_from_dict(d: dict | None, n: int) -> PotentialSpec:
    d = _typed(d or {}, dict, "potential")
    one_body = []
    for i, term in enumerate(_typed(d.get("one_body", []), list, "potential.one_body")):
        path = f"potential.one_body[{i}]"
        kind = _need(term, "kind", f"{path}.kind")
        if kind == "harmonic_x":
            center = _array(term.get("center", []), f"{path}.center")
            if len(center) not in (0, n):
                raise ValidationError(f"{path}.center must have n = {n} entries")
            one_body.append(TranslationalHarmonic(stiffness=_num(term, "stiffness", path),
                                                  center=tuple(center.tolist())))
        elif kind == "invariant":
            one_body.append(InvariantTerm(
                a=_num(term, "a", path, cast=int, minimum=1),
                fn=_scalar_fn_from_dict(_need(term, "fn", f"{path}.fn"), f"{path}.fn")))
        else:
            raise ValidationError(f"unknown one-body term kind {kind!r} at {path!r}")
    binary = []
    for i, term in enumerate(_typed(d.get("binary", []), list, "potential.binary")):
        path = f"potential.binary[{i}]"
        binary.append(BinaryTerm(
            arg=_typed(_need(term, "arg", f"{path}.arg"), str, f"{path}.arg"),
            fn=_scalar_fn_from_dict(_need(term, "fn", f"{path}.fn"), f"{path}.fn")))
    dil = None
    if d.get("dilatation") is not None:
        path = "potential.dilatation"
        dil = DilatationTerm(kappa=_num(d["dilatation"], "kappa", path, minimum=0.0),
                             d_ref=_num(d["dilatation"], "d_ref", path, DilatationTerm.d_ref,
                                        positive=True))
    try:
        return PotentialSpec(one_body=tuple(one_body), binary=tuple(binary), dil=dil)
    except ValueError as exc:
        raise ValidationError(f"potential.binary: {exc}") from exc


def _potential_to_dict(spec: PotentialSpec) -> dict:
    out = {"one_body": [_fields_to_dict(t) for t in spec.one_body],
           "binary": [_fields_to_dict(t) for t in spec.binary],
           "dilatation": None if spec.dil is None else _fields_to_dict(spec.dil)}
    return {key: val for key, val in out.items() if val}


def _inertia_from_dict(d: dict, n: int, path: str = "inertia") -> InertiaParams:
    sides = {"M": 0, "I": 0, "A": 0, "B": 0, "J": n, "H": n, "Lten": n * n, "Rten": n * n}
    unknown = set(_typed(d, dict, path)) - set(sides)
    if unknown:
        raise ValidationError(f"unknown keys under {path!r}: {sorted(unknown)}")
    kwargs = {}
    for key, val in d.items():
        if val is not None:
            kwargs[key] = _array(val, f"{path}.{key}", (sides[key],) * 2) if sides[key] \
                else _num(d, key, path)
    try:
        return InertiaParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad inertia parameters at {path!r}: {exc}") from exc


def _initial_from_dict(d: dict | None, n: int, N: int):
    """Returns (PhaseState or None, generate_scale)."""
    if d is None:
        return None, GENERATE_SCALE
    if "generate" in _typed(d, dict, "initial"):
        return None, _num(d["generate"], "scale", "initial.generate", GENERATE_SCALE)
    bodies = _typed(_need(d, "bodies", "initial.bodies"), list, "initial.bodies")
    if len(bodies) != N:
        raise ValidationError(f"initial.bodies has {len(bodies)} entries, expected N = {N}")
    x, phi, p, pi = [], [], [], []
    for K, b in enumerate(bodies):
        path = f"initial.bodies[{K}]"
        x.append(_array(_need(b, "x", f"{path}.x"), f"{path}.x", (n,)))
        phi.append(_array(_need(b, "phi", f"{path}.phi"), f"{path}.phi", (n, n)))
        # the run must start inside GL+(n), where dynamics._first_problem keeps
        # it; finite entries such as 1e200 Id can still give an inf det
        with np.errstate(over="ignore", invalid="ignore"):
            det = unchecked_det(phi[-1])
        if not DET_FLOOR < det < np.inf:
            raise ValidationError(f"'{path}.phi' must have a finite det > {DET_FLOOR}, "
                                  f"got {det:.3e}")
        p.append(_array(b.get("p", np.zeros(n)), f"{path}.p", (n,)))
        pi.append(_array(b.get("pi", np.zeros((n, n))), f"{path}.pi", (n, n)))
    return PhaseState(config=SystemConfig(x=np.stack(x), phi=np.stack(phi)),
                      mom=MomentumState(p=np.stack(p), pi=np.stack(pi)), time=0.0), GENERATE_SCALE


def scenario_from_dict(d: dict) -> Scenario:
    version = _num(d, "schema_version", "", SCHEMA_VERSION, cast=int)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version}")
    n = _num(d, "n", "", cast=int)
    if not 1 <= n <= 4:
        raise ValidationError("n must be between 1 and 4")
    N = _num(d, "N", "", cast=int, minimum=1)
    kin = _need(d, "kinetic", "kinetic")
    translational = _need(kin, "translational", "kinetic.translational")
    internal = _need(kin, "internal", "kinetic.internal")
    try:
        model = KineticModel(translational=translational, internal=internal)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    inertia = _typed(_need(d, "inertia", "inertia"), dict, "inertia")
    if "per_body" in inertia:
        entries = _typed(inertia["per_body"], list, "inertia.per_body")
        if len(entries) != N:
            raise ValidationError(f"inertia.per_body has {len(entries)} entries, expected N = {N}")
        params = tuple(_inertia_from_dict(e, n, f"inertia.per_body[{i}]")
                       for i, e in enumerate(entries))
    else:
        params = _inertia_from_dict(inertia, n)
    potential = _potential_from_dict(d.get("potential"), n)
    initial, scale = _initial_from_dict(d.get("initial"), n, N)
    integ = _typed(d.get("integrator", {}), dict, "integrator")
    method = integ.get("method", "implicit_midpoint")
    if method not in INTEGRATION_METHODS:
        raise ValidationError(f"integrator.method must be one of {INTEGRATION_METHODS}")
    dt = _num(integ, "dt", "integrator", 1e-3, positive=True)
    T = _num(integ, "T", "integrator", 1.0, minimum=0.0)
    # integrate holds every sample, (steps + 1) x D float64s with steps <= T / dt + 1
    if not (T / dt + 2) * 16 * N * n * (n + 1) <= np.iinfo(np.intp).max:
        raise ValidationError(f"'integrator.T' = {T!r} takes too many steps of dt = {dt!r} "
                              "to hold every sample in one array")
    out_dir = _typed(_typed(d.get("output", {}), dict, "output").get("dir", ""), str, "output.dir")
    return Scenario(n=n, N=N, model=model, params=params, potential=potential,
                    initial=initial, generate_scale=scale, method=method, dt=dt,
                    T=T, seed=_num(d, "seed", "", 0, cast=int, minimum=0),
                    name=_typed(d.get("name", ""), str, "name"), out_dir=out_dir,
                    schema_version=version)


def scenario_to_dict(s: Scenario) -> dict:
    out: dict = {
        "schema_version": s.schema_version,
        "n": s.n,
        "N": s.N,
        "kinetic": {"translational": s.model.translational, "internal": s.model.internal},
        "integrator": {"method": s.method, "dt": s.dt, "T": s.T},
        "seed": s.seed,
    }
    if s.name:
        out["name"] = s.name
    if s.out_dir:
        out["output"] = {"dir": s.out_dir}
    if isinstance(s.params, InertiaParams):
        out["inertia"] = _fields_to_dict(s.params)
    else:
        out["inertia"] = {"per_body": [_fields_to_dict(p) for p in s.params]}
    pot = _potential_to_dict(s.potential)
    if pot:
        out["potential"] = pot
    if s.initial is None:
        out["initial"] = {"generate": {"scale": s.generate_scale}}
    else:
        out["initial"] = {"bodies": [
            {"x": s.initial.config.x[K].tolist(),
             "phi": s.initial.config.phi[K].tolist(),
             "p": s.initial.mom.p[K].tolist(),
             "pi": s.initial.mom.pi[K].tolist()}
            for K in range(s.N)
        ]}
    return out


def bundled_scenario_path(name: str):
    """Path of a scenario shipped with the package (name without .json)."""
    from importlib.resources import files

    path = files("affinekit") / "scenarios" / f"{name}.json"
    if not path.is_file():
        available = sorted(p.name[:-5] for p in (files("affinekit") / "scenarios").iterdir()
                           if p.name.endswith(".json"))
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {available}")
    return path


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(data)


def serialize_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")
