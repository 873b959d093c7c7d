from dataclasses import fields

import pytest

from ricciflow.cli import main
from ricciflow.config import (
    _GEOMETRY_ALLOWED,
    ConfigError,
    ExperimentConfig,
    GeometrySpec,
    PerturbationSpec,
    parse_config,
)
from ricciflow.flow import FlowConfig

MINIMAL = "[geometry]\nkind = icosphere\n"

FULL = """\
# full torus example
[geometry]
kind = flat_torus
n = 8          # grid rows
m = 12
l1 = 1.0
l2 = 2.5

[perturbation]
amplitude = 0.25
mode = 3
seed = 11

[flow]
mode = normalized
dt_init = 5e-4
t_end = 0.12
cfl_safety = 0.2
curvature_cap = 50.0
area_floor = 1e-4
spectrum_k = 4
record_every = 5
solver_tol = 1e-9
stop_when_round = 0.01

[output]
directory = /tmp/run

[experiment]
name = verify
"""


def error_from(text):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    return excinfo.value


def test_minimal_config_defaults():
    config = parse_config(MINIMAL)
    assert isinstance(config, ExperimentConfig)
    assert config.geometry == GeometrySpec(kind="icosphere")
    assert config.geometry.subdivisions == 4
    assert config.geometry.radius == 1.0
    assert config.perturbation == PerturbationSpec()
    assert config.flow.mode == "unnormalized"
    assert config.flow.dt_init == 1e-3
    assert config.flow.t_end == 0.3
    assert config.flow.spectrum_k == 6
    assert config.flow.record_every == 10
    assert config.output_dir is None
    assert config.experiment == "flow"


def test_full_config_round_trip():
    config = parse_config(FULL)
    geo = config.geometry
    assert (geo.kind, geo.n, geo.m, geo.l1, geo.l2) == \
        ("flat_torus", 8, 12, 1.0, 2.5)
    assert config.perturbation == PerturbationSpec(amplitude=0.25, mode=3,
                                                   seed=11)
    flow = config.flow
    assert flow.mode == "normalized"
    assert flow.dt_init == 5e-4
    assert flow.t_end == 0.12
    assert flow.cfl_safety == 0.2
    assert flow.curvature_cap == 50.0
    assert flow.area_floor == 1e-4
    assert flow.spectrum_k == 4
    assert flow.record_every == 5
    assert flow.solver_tol == 1e-9
    assert flow.stop_when_round == 0.01
    assert config.output_dir == "/tmp/run"
    assert config.experiment == "verify"


def test_comments_and_blank_lines_are_ignored():
    text = "\n# leading comment\n\n[geometry]\n# inner\nkind = icosphere  # trailing\n\n"
    assert parse_config(text).geometry.kind == "icosphere"


# ---------------------------------------------------------------------------
# structural errors, with line numbers


def test_unknown_section():
    err = error_from(MINIMAL + "[misc]\nfoo = 1\n")
    assert "unknown section" in str(err)
    assert err.line == 3


def test_unknown_key():
    err = error_from("[geometry]\nkind = icosphere\ncolour = red\n")
    assert "unknown key 'colour'" in str(err)
    assert err.line == 3


SPEC_SECTIONS = (("geometry", GeometrySpec),
                 ("perturbation", PerturbationSpec),
                 ("flow", FlowConfig))


def raw_value(f, kind):
    """A valid config value for field ``f``, in a geometry of ``kind``."""
    if f.type is str:
        return {"kind": kind, "path": "mesh.off", "mode": "normalized"}[f.name]
    return {int: "3", float: "0.25"}[f.type]


def test_every_spec_field_is_a_key_parsed_to_its_type():
    covered = set()
    for kind, allowed in _GEOMETRY_ALLOWED.items():
        keys = [(section, f) for section, spec in SPEC_SECTIONS
                for f in fields(spec)
                if section != "geometry" or f.name in allowed]
        config = parse_config("".join(
            f"[{section}]\n{f.name} = {raw_value(f, kind)}\n"
            for section, f in keys))
        for section, f in keys:
            value = getattr(getattr(config, section), f.name)
            assert type(value) is f.type, (section, f.name)
            assert value == f.type(raw_value(f, kind))
            covered.add((section, f.name))
    assert covered == {(section, f.name) for section, spec in SPEC_SECTIONS
                       for f in fields(spec)}


@pytest.mark.parametrize("section, key", [("geometry", "amplitude"),
                                          ("perturbation", "dt_init"),
                                          ("flow", "radius")])
def test_a_field_of_another_section_is_an_unknown_key(section, key):
    err = error_from(f"{MINIMAL}[{section}]\n\n{key} = 1\n")
    assert f"unknown key {key!r} in [{section}]" in str(err)
    assert err.line == 5


def test_duplicate_key():
    err = error_from("[geometry]\nkind = icosphere\nkind = icosphere\n")
    assert "duplicate key 'kind'" in str(err)
    assert err.line == 3


def test_type_mismatch_reports_line():
    err = error_from("[geometry]\nkind = icosphere\nsubdivisions = four\n")
    assert "expected an integer" in str(err)
    assert err.line == 3
    err = error_from("[geometry]\nkind = icosphere\nradius = big\n")
    assert "expected a number" in str(err)


def test_assignment_before_section():
    err = error_from("kind = icosphere\n")
    assert "before any" in str(err)
    assert err.line == 1


def test_malformed_lines():
    err = error_from("[geometry]\nkind icosphere\n")
    assert "key = value" in str(err)
    assert err.line == 2
    err = error_from("[geometry]\nkind =\n")
    assert "key = value" in str(err)


def test_missing_geometry():
    err = error_from("[flow]\ndt_init = 1e-3\n")
    assert "missing [geometry]" in str(err)
    assert err.line is None


# ---------------------------------------------------------------------------
# semantic validation


def test_bad_geometry_kind():
    err = error_from("[geometry]\nkind = klein_bottle\n")
    assert "geometry kind" in str(err)
    assert err.line == 2


def test_key_not_applicable_to_kind():
    err = error_from("[geometry]\nkind = icosphere\nn = 8\n")
    assert "does not apply" in str(err)
    assert err.line == 3


def test_missing_required_geometry_key():
    err = error_from("[geometry]\nkind = flat_torus\nn = 8\n")
    assert "requires key 'm'" in str(err)
    err = error_from("[geometry]\nkind = off_file\n")
    assert "requires key 'path'" in str(err)


def test_nonpositive_radius():
    err = error_from("[geometry]\nkind = icosphere\nradius = -1.0\n")
    assert "radius" in str(err)
    assert err.line == 3


def test_negative_amplitude():
    err = error_from(MINIMAL + "[perturbation]\namplitude = -0.1\n")
    assert "amplitude" in str(err)
    assert err.line == 4


def test_negative_seed_names_key_and_line(tmp_path, capsys):
    text = MINIMAL + "[perturbation]\nseed = -3\n"
    err = error_from(text)
    assert "seed must be nonnegative" in str(err)
    assert err.line == 4
    path = tmp_path / "negative_seed.cfg"
    path.write_text(text)
    assert main(["flow", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    assert "line 4: seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_perturbation_mode():
    err = error_from(MINIMAL + "[perturbation]\nmode = 4\n")
    assert "perturbation mode" in str(err)


def test_bad_flow_mode():
    err = error_from(MINIMAL + "[flow]\nmode = backwards\n")
    assert "flow mode" in str(err)
    assert err.line == 4


def test_flow_values_validated_by_driver():
    err = error_from(MINIMAL + "[flow]\ndt_init = -1.0\n")
    assert "positive" in str(err)
    err = error_from(MINIMAL + "[flow]\nspectrum_k = 0\n")
    assert "spectrum_k" in str(err)


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["dt_init", "t_end", "curvature_cap",
                                 "area_floor", "solver_tol",
                                 "stop_when_round"])
def test_nonfinite_flow_values_rejected(key, value, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"{key} must be finite"):
        FlowConfig(**{key: float(value)})
    text = MINIMAL + f"[flow]\n{key} = {value}\n"
    assert f"{key} must be finite" in str(error_from(text))
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text)
    assert main(["flow", "--config", str(config_path),
                 "--out", str(tmp_path / "run")]) == 3
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_amplitude_rejected(value, tmp_path, capsys):
    text = MINIMAL + f"[perturbation]\namplitude = {value}\n"
    err = error_from(text)
    assert "amplitude must be finite" in str(err)
    assert err.line == 4
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(text)
    assert main(["verify", "--config", str(config_path),
                 "--out", str(tmp_path / "run")]) == 3
    assert "amplitude must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bad_experiment_name():
    err = error_from(MINIMAL + "[experiment]\nname = destroy\n")
    assert "experiment must be one of" in str(err)
    assert err.line == 4
