"""Experiment configuration: flat dotted keys, strict schema.

A config file is plain text, one ``section.key = value`` per line, with
``#`` comments and blank lines ignored.  Every key is declared below with
its type and default; unknown keys and malformed values are rejected by
name so a typo cannot silently fall back to a default.  A config is
valid when what it configures builds from it, so every value is checked
when the config is made, by the constructor that reads it.  parse and
serialize are inverses, which is what makes a run reproducible from its
config and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .harness import (build_cycle, build_hierarchy, build_problem,
                      build_stopping)
from .problems import SOURCES
from .runtime import DEFAULT_TIMEOUT
from .spatial import STRATEGIES

PROBLEM_KINDS = ("linear", "nonlinear", "machine", "dahlquist")


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
    run_seed: int = 0
    run_timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        """Valid when the problem, hierarchy, cycle and stopping criterion
        build from it; names that nothing builds from before a run (or
        that the problem kind would fall through) are checked here."""
        for key, value, choices in (
                ("problem.kind", self.problem_kind, PROBLEM_KINDS),
                ("problem.source", self.problem_source, SOURCES),
                ("cycle.spatial_strategy", self.cycle_spatial_strategy,
                 STRATEGIES)):
            if value not in choices:
                raise ValueError(f"{key} must be one of {choices}, "
                                 f"got {value!r}")
        if self.run_seed < 0:  # only the random profile draws from it
            raise ValueError(f"run.seed must be non-negative, "
                             f"got {self.run_seed}")
        if not 0.0 < self.run_timeout < math.inf:  # only a run waits
            raise ValueError(f"run.timeout must be a positive number of "
                             f"seconds, got {self.run_timeout}")
        if self.hierarchy_workers < 1:  # only a run spawns them
            raise ValueError(f"hierarchy.workers must be positive, "
                             f"got {self.hierarchy_workers}")
        build_problem(self)
        build_hierarchy(self)
        build_cycle(self)
        build_stopping(self)


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
