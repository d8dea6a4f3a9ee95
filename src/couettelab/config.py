"""Line-oriented `key = value` configuration with one section level.

Example::

    # resolvent case
    [case]
    nu = 1e-3
    k = 2
    lambda = 0.5
    bc = non_slip

Unknown keys, malformed lines, and constraint violations raise ConfigError
with the offending line number.
"""

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    pass


def _num(text):
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}")
    return v


def _int(text):
    v = _num(text)
    if v != int(v):
        raise ConfigError(f"expected an integer, got {text!r}")
    return int(v)


def _num_list(text):
    return tuple(_num(p.strip()) for p in text.split(",") if p.strip())


def _str(text):
    return text.strip()


@dataclass(frozen=True)
class _Key:
    parse: callable
    default: object


# schema: command -> section -> key -> (_Key)
SCHEMA = {
    "airy": {
        "airy": {
            "x_min": _Key(_num, -12.0),
            "x_max": _Key(_num, 6.0),
            "step": _Key(_num, 0.5),
            "delta": _Key(_num, 0.0),
            "samples": _Key(_int, 0),
        },
    },
    "resolvent": {
        "case": {
            "nu": _Key(_num, 1e-3),
            "k": _Key(_int, 1),
            "lambda": _Key(_num, 0.0),
            "epsilon": _Key(_num, 0.0),
            "bc": _Key(_str, "navier_slip"),
            "n": _Key(_int, 0),
            "forcing": _Key(_str, "exp_ipiy"),
            "path": _Key(_str, "auto"),
        },
    },
    "homog": {
        "case": {
            "nu": _Key(_num, 1e-3),
            "k": _Key(_int, 1),
            "lambda": _Key(_num, 0.0),
            "epsilon": _Key(_num, 0.0),
            "n": _Key(_int, 0),
            "method": _Key(_str, "airy"),
        },
    },
    "sweep": {
        "sweep": {
            "check": _Key(_str, "navier_l2"),
            "nu": _Key(_num_list, (1e-2, 1e-3, 1e-4)),
            "k": _Key(_int, 1),
        },
    },
    "spectrum": {
        "case": {
            "nu": _Key(_num, 1e-3),
            "k": _Key(_int, 1),
            "bc": _Key(_str, "non_slip"),
            "n": _Key(_int, 0),
        },
    },
    "evolve": {
        "case": {
            "nu": _Key(_num, 1e-3),
            "k": _Key(_int, 1),
            "bc": _Key(_str, "non_slip"),
            "dt": _Key(_num, 0.0),
            "t_end": _Key(_num, 0.0),
            "n": _Key(_int, 0),
            "data": _Key(_str, "stream_bump"),
        },
    },
    "threshold": {
        "threshold": {
            "nu": _Key(_num_list, (1e-3,)),
            "amplitude_lo": _Key(_num, 0.005),
            "amplitude_hi": _Key(_num, 0.05),
            "k_max": _Key(_int, 8),
            "t_end": _Key(_num, 0.0),
        },
    },
    "report": {
        "report": {
            "blocks": _Key(_str, "airy,resolvent"),
            "nu": _Key(_num_list, (1e-2, 1e-3, 1e-4)),
            "k": _Key(_int, 1),
        },
    },
}


def parse_config(text, command):
    """Parse and validate configuration text for one subcommand.

    Returns {section: {key: value}} with defaults filled in.
    """
    if command not in SCHEMA:
        raise ConfigError(f"unknown command {command!r}")
    schema = SCHEMA[command]
    out = {sec: {key: spec.default for key, spec in keys.items()}
           for sec, keys in schema.items()}
    section = next(iter(schema))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in schema:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in schema[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        try:
            out[section][key] = schema[section][key].parse(value.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    _validate(command, out)
    return out


def _validate(command, cfg):
    for sec, keys in cfg.items():
        if "nu" in keys:
            nus = keys["nu"] if isinstance(keys["nu"], tuple) else (keys["nu"],)
            if any(nu <= 0 for nu in nus):
                raise ConfigError("nu must be positive")
        if "k" in keys and abs(keys["k"]) < 1:
            raise ConfigError("k must satisfy |k| >= 1")
    if command == "sweep":
        nus = cfg["sweep"]["nu"]
        if not nus or math.log10(max(nus) / min(nus)) < 2.0 - 1e-9:
            raise ConfigError("exponent fit requires >= 2 decades")
    if command == "threshold":
        lo, hi = cfg["threshold"]["amplitude_lo"], cfg["threshold"]["amplitude_hi"]
        if not lo < hi:
            raise ConfigError("amplitude_lo must be < amplitude_hi")
