import dataclasses

import pytest

from pintmg.config import (ExperimentConfig, load_config, parse_config,
                           save_config, serialize_config, with_overrides)


def test_defaults_valid():
    c = ExperimentConfig()
    assert c.problem_kind == "nonlinear"
    assert c.stopping_tolerance == 1e-8


def test_serialize_parse_round_trip_defaults():
    c = ExperimentConfig()
    assert parse_config(serialize_config(c)) == c


def test_serialize_parse_round_trip_non_defaults():
    c = ExperimentConfig(problem_kind="machine", problem_nx=63,
                         problem_brauer_k2=3.5, time_t_final=0.04,
                         time_n_steps=1024, hierarchy_workers=4,
                         cycle_kind="F", cycle_gamma=0,
                         cycle_nested_iterations=True,
                         cycle_spatial_strategy="delayed",
                         stopping_kind="qoi-change",
                         stopping_tolerance=2.5e-9,
                         excitation_enabled=False, run_transport="thread",
                         run_seed=1234)
    assert parse_config(serialize_config(c)) == c


def test_round_trip_through_file(tmp_path):
    c = ExperimentConfig(problem_nx=15, run_seed=9)
    path = tmp_path / "exp.cfg"
    save_config(c, path)
    assert load_config(path) == c
    # LF endings regardless of platform
    assert b"\r" not in path.read_bytes()


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\nproblem.nx = 7\n\n# trailing\n"
    assert parse_config(text).problem_nx == 7


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ValueError, match=r"line 2.*problem\.typo"):
        parse_config("problem.nx = 7\nproblem.typo = 3\n")


def test_duplicate_key_rejected_with_line_number():
    with pytest.raises(ValueError, match=r"line 3.*problem\.nx"):
        parse_config("\nproblem.nx = 7\nproblem.nx = 9\n")


def test_missing_separator_rejected():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("problem.nx 7\n")


def test_bad_int_names_key():
    with pytest.raises(ValueError, match=r"problem\.nx"):
        parse_config("problem.nx = seven\n")


def test_bool_values_are_strict():
    assert parse_config("excitation.ramp = false\n").excitation_ramp is False
    for bogus in ("True", "1", "yes"):
        with pytest.raises(ValueError, match=r"excitation\.ramp"):
            parse_config(f"excitation.ramp = {bogus}\n")


def test_every_field_maps_to_a_dotted_key():
    text = serialize_config(ExperimentConfig())
    keys = {line.split(" = ")[0] for line in text.splitlines()}
    assert len(keys) == len(dataclasses.fields(ExperimentConfig))
    assert all("." in k for k in keys)


@pytest.mark.parametrize("kwargs", [
    dict(problem_kind="heat"),
    dict(cycle_kind="W"),
    dict(cycle_gamma=-1),
    dict(cycle_spatial_strategy="late"),
    dict(stopping_kind="energy"),
    dict(stopping_tolerance=0.0),
    dict(time_n_steps=0),
    dict(time_t_final=-1.0),
    dict(problem_nx=0),
    dict(hierarchy_workers=0),
    dict(hierarchy_max_levels=0),
    dict(hierarchy_coarse_factor=1),
    dict(run_transport="mpi"),
    dict(excitation_pulses=0),
    dict(excitation_modulation=1.5),
    dict(excitation_phase=4),
    dict(problem_conductivity=0.0),
    dict(problem_kind="linear", problem_diffusivity=0.0),
    dict(problem_kind="machine", problem_brauer_k3=0.0),
    dict(problem_kind="machine", problem_inertia=0.0),
    dict(problem_kind="machine", problem_friction=-0.1),
    dict(problem_nx=30, problem_spatial_grids=2),
    dict(cycle_max_iters=0),
])
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_source_is_checked_at_parse_time():
    for source in ("sine", "bump", "random"):
        assert parse_config(f"problem.source = {source}\n").problem_source \
            == source
    with pytest.raises(ValueError, match=r"problem\.source.*'sin'"):
        parse_config("problem.source = sin\n")


def test_with_overrides():
    c = ExperimentConfig()
    c2 = with_overrides(c, hierarchy_workers=4, run_seed=17)
    assert c2.hierarchy_workers == 4 and c2.run_seed == 17
    assert c.hierarchy_workers == 1
    with pytest.raises(ValueError):
        with_overrides(c, hierarchy_workers=0)
