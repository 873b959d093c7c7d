"""Experiment configuration: flat key-value files with [section] headers.

Grammar::

    # comment (also allowed after a value)
    [section]
    key = value

Sections: ``[geometry]`` (required), ``[perturbation]``, ``[flow]``,
``[output]``, ``[experiment]``.  Unknown sections or keys are rejected
with their line number; every omitted key takes a documented default.
"""

import math
from dataclasses import dataclass, field, fields

from .flow import MODES, FlowConfig

EXPERIMENTS = ("flow", "verify", "soliton", "conjecture", "perelman")
GEOMETRY_KINDS = ("icosphere", "flat_torus", "off_file")
PERTURBATION_MODES = (1, 2, 3)


class ConfigError(ValueError):
    """Invalid experiment configuration, with a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class GeometrySpec:
    kind: str
    subdivisions: int = 4
    radius: float = 1.0
    n: int = None
    m: int = None
    l1: float = 1.0
    l2: float = 1.0
    path: str = None


@dataclass
class PerturbationSpec:
    amplitude: float = 0.0
    mode: int = 2
    seed: int = 0


@dataclass
class ExperimentConfig:
    geometry: GeometrySpec
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    flow: FlowConfig = field(default_factory=FlowConfig)
    output_dir: str = None
    experiment: str = "flow"


def _parse_int(raw):
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw):
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _parse_str(raw):
    return raw


# The spec sections take their keys and value types from the dataclass
# fields they fill.
_PARSERS = {int: _parse_int, float: _parse_float, str: _parse_str}
_SECTION_KEYS = {
    **{section: {f.name: _PARSERS[f.type] for f in fields(spec)}
       for section, spec in (("geometry", GeometrySpec),
                             ("perturbation", PerturbationSpec),
                             ("flow", FlowConfig))},
    "output": {"directory": _parse_str},
    "experiment": {"name": _parse_str},
}

_GEOMETRY_REQUIRED = {
    "icosphere": (),
    "flat_torus": ("n", "m"),
    "off_file": ("path",),
}
_GEOMETRY_ALLOWED = {
    "icosphere": ("kind", "subdivisions", "radius"),
    "flat_torus": ("kind", "n", "m", "l1", "l2"),
    "off_file": ("kind", "path"),
}


def _scan(text):
    """Yield (line_number, section, key, raw_value) for every assignment."""
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=lineno)
        if section is None:
            raise ConfigError("assignment before any [section] header",
                              line=lineno)
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if not key or not raw_value:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=lineno)
        yield lineno, section, key, raw_value


def parse_config(text):
    """Parse and validate configuration text into an ExperimentConfig.

    Raises
    ------
    ConfigError
        On unknown sections/keys, type mismatches, duplicate keys,
        missing geometry, or values the flow driver rejects; the
        message carries the offending line number when one exists.
    """
    values = {section: {} for section in _SECTION_KEYS}
    lines = {}
    for lineno, section, key, raw in _scan(text):
        converters = _SECTION_KEYS[section]
        if key not in converters:
            raise ConfigError(f"unknown key {key!r} in [{section}]",
                              line=lineno)
        if key in values[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]",
                              line=lineno)
        try:
            values[section][key] = converters[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", line=lineno) from None
        lines[(section, key)] = lineno

    geo_values = values["geometry"]
    if "kind" not in geo_values:
        raise ConfigError("missing [geometry] section with a 'kind' key")
    kind = geo_values["kind"]
    if kind not in GEOMETRY_KINDS:
        raise ConfigError(
            f"geometry kind must be one of {GEOMETRY_KINDS}, got {kind!r}",
            line=lines[("geometry", "kind")],
        )
    for key in geo_values:
        if key not in _GEOMETRY_ALLOWED[kind]:
            raise ConfigError(
                f"key {key!r} does not apply to geometry kind {kind!r}",
                line=lines[("geometry", key)],
            )
    for key in _GEOMETRY_REQUIRED[kind]:
        if key not in geo_values:
            raise ConfigError(f"geometry kind {kind!r} requires key {key!r}")
    geometry = GeometrySpec(**geo_values)
    if geometry.kind == "icosphere" and geometry.radius <= 0:
        raise ConfigError("radius must be positive",
                          line=lines.get(("geometry", "radius")))

    pert_values = values["perturbation"]
    perturbation = PerturbationSpec(**pert_values)
    if not math.isfinite(perturbation.amplitude):
        raise ConfigError("amplitude must be finite",
                          line=lines.get(("perturbation", "amplitude")))
    for key in ("amplitude", "seed"):
        if getattr(perturbation, key) < 0:
            raise ConfigError(f"{key} must be nonnegative",
                              line=lines.get(("perturbation", key)))
    if perturbation.mode not in PERTURBATION_MODES:
        raise ConfigError(
            f"perturbation mode must be one of {PERTURBATION_MODES}",
            line=lines.get(("perturbation", "mode")),
        )

    flow_values = values["flow"]
    if "mode" in flow_values and flow_values["mode"] not in MODES:
        raise ConfigError(f"flow mode must be one of {MODES}",
                          line=lines[("flow", "mode")])
    try:
        flow_config = FlowConfig(**flow_values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    experiment = values["experiment"].get("name", "flow")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {EXPERIMENTS}, got {experiment!r}",
            line=lines.get(("experiment", "name")),
        )

    return ExperimentConfig(
        geometry=geometry,
        perturbation=perturbation,
        flow=flow_config,
        output_dir=values["output"].get("directory"),
        experiment=experiment,
    )
