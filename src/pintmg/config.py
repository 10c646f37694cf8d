"""Experiment configuration: flat dotted keys, strict schema.

A config file is plain text, one ``section.key = value`` per line, with
``#`` comments and blank lines ignored.  Every key is declared below with
its type and default; unknown keys and malformed values are rejected by
name so a typo cannot silently fall back to a default.  parse and
serialize are inverses, which is what makes a run reproducible from its
config and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .mgrit import CYCLE_KINDS, STOPPING_KINDS
from .problems import SOURCES
from .spatial import STRATEGIES

PROBLEM_KINDS = ("linear", "nonlinear", "machine", "dahlquist")
TRANSPORTS = ("thread", "process")


@dataclass(frozen=True)
class ExperimentConfig:
    problem_kind: str = "nonlinear"
    problem_nx: int = 31
    problem_spatial_grids: int = 1
    problem_conductivity: float = 1.0
    problem_diffusivity: float = 1.0
    problem_source: str = "sine"
    problem_brauer_k1: float = 0.05
    problem_brauer_k2: float = 2.0
    problem_brauer_k3: float = 1.0
    problem_inertia: float = 1.0
    problem_friction: float = 0.1
    problem_rate: float = -1.0
    problem_initial: float = 1.0
    time_t_final: float = 0.02
    time_n_steps: int = 256
    hierarchy_workers: int = 1
    hierarchy_max_levels: int = 5
    hierarchy_coarse_factor: int = 4
    cycle_kind: str = "V"
    cycle_gamma: int = 1
    cycle_max_iters: int = 50
    cycle_nested_iterations: bool = False
    cycle_spatial_strategy: str = "none"
    stopping_kind: str = "residual-norm"
    stopping_tolerance: float = 1e-8
    excitation_enabled: bool = True
    excitation_period: float = 0.02
    excitation_pulses: int = 400
    excitation_modulation: float = 0.8
    excitation_phase: int = 1
    excitation_ramp: bool = True
    run_transport: str = "process"
    run_seed: int = 0

    def __post_init__(self):
        if self.problem_kind not in PROBLEM_KINDS:
            raise ValueError(f"problem.kind must be one of {PROBLEM_KINDS}, "
                             f"got {self.problem_kind!r}")
        if self.problem_source not in SOURCES:
            raise ValueError(f"problem.source must be one of {SOURCES}, "
                             f"got {self.problem_source!r}")
        if self.run_transport not in TRANSPORTS:
            raise ValueError(f"run.transport must be one of {TRANSPORTS}, "
                             f"got {self.run_transport!r}")
        if self.cycle_kind not in CYCLE_KINDS:
            raise ValueError(f"cycle.kind must be one of {CYCLE_KINDS}, "
                             f"got {self.cycle_kind!r}")
        if self.cycle_gamma < 0:
            raise ValueError(f"cycle.gamma must be >= 0, "
                             f"got {self.cycle_gamma}")
        if self.cycle_spatial_strategy not in STRATEGIES:
            raise ValueError(f"cycle.spatial_strategy must be one of "
                             f"{STRATEGIES}, got "
                             f"{self.cycle_spatial_strategy!r}")
        if self.stopping_kind not in STOPPING_KINDS:
            raise ValueError(f"stopping.kind must be one of {STOPPING_KINDS},"
                             f" got {self.stopping_kind!r}")
        positive = [("problem.nx", self.problem_nx),
                    ("problem.spatial_grids", self.problem_spatial_grids),
                    ("time.t_final", self.time_t_final),
                    ("time.n_steps", self.time_n_steps),
                    ("hierarchy.workers", self.hierarchy_workers),
                    ("hierarchy.max_levels", self.hierarchy_max_levels),
                    ("stopping.tolerance", self.stopping_tolerance),
                    ("excitation.period", self.excitation_period),
                    ("excitation.pulses", self.excitation_pulses)]
        for name, value in positive:
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.hierarchy_coarse_factor < 2:
            raise ValueError(f"hierarchy.coarse_factor must be >= 2, "
                             f"got {self.hierarchy_coarse_factor}")


def _key_of(attr):
    return attr.replace("_", ".", 1)


def _attr_of(key):
    return key.replace(".", "_", 1)


def _parse_value(key, text, kind):
    text = text.strip()
    if kind is bool:
        if text == "true":
            return True
        if text == "false":
            return False
        raise ValueError(f"{key}: expected true or false, got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{key}: expected {kind.__name__}, got {text!r}")


def _format_value(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def parse_config(text):
    """Build a config from flat key = value lines, defaults filled in."""
    schema = {_key_of(f.name): f.type for f in fields(ExperimentConfig)}
    types = {"str": str, "int": int, "float": float, "bool": bool}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, "
                             f"got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in schema:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if _attr_of(key) in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        kind = types[schema[key]] if isinstance(schema[key], str) else schema[key]
        values[_attr_of(key)] = _parse_value(key, value, kind)
    return ExperimentConfig(**values)


def serialize_config(config):
    lines = [f"{_key_of(f.name)} = {_format_value(getattr(config, f.name))}"
             for f in fields(ExperimentConfig)]
    return "\n".join(lines) + "\n"


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(config, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_config(config))


def with_overrides(config, **attrs):
    """replace() passthrough so callers need not import dataclasses."""
    return replace(config, **attrs)
