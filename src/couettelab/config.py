"""Line-oriented `key = value` configuration with one section level.

Example::

    # resolvent case
    [case]
    nu = 1e-3
    k = 2
    lambda = 0.5
    bc = non_slip

Unknown keys, malformed lines, values outside a key's closed set of
choices, and constraint violations raise ConfigError with the offending
line number.
"""

import math
from dataclasses import dataclass

from .grid import N_MAX, default_order


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


def _one_of(*choices):
    """Parser of a closed choice: the text, if it is one of `choices`."""
    def parse(text):
        if text not in choices:
            raise ConfigError(f"expected one of {', '.join(choices)}, got {text!r}")
        return text
    return parse


def _list_of(*choices):
    """Parser of a non-empty comma-separated list of closed choices, as a
    tuple."""
    one = _one_of(*choices)

    def parse(text):
        out = tuple(one(p.strip()) for p in text.split(",") if p.strip())
        if not out:
            raise ConfigError(f"expected a list of {', '.join(choices)}, got {text!r}")
        return out
    return parse


# the closed choices: resolvent.BCS, harness.FORCINGS, the paths of
# resolvent.solve_nonslip, harness.SWEEP_CHECKS, and the CLI's own names
_bc = _one_of("navier_slip", "non_slip")


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
            "bc": _Key(_bc, "navier_slip"),
            "n": _Key(_int, 0),
            "forcing": _Key(_one_of("one", "exp_ipiy", "exp_iy", "cos_half"), "exp_ipiy"),
            "path": _Key(_one_of("auto", "monolithic", "decomposed", "decomposed_bvp"),
                         "auto"),
        },
    },
    "homog": {
        "case": {
            "nu": _Key(_num, 1e-3),
            "k": _Key(_int, 1),
            "lambda": _Key(_num, 0.0),
            "epsilon": _Key(_num, 0.0),
            "n": _Key(_int, 0),
            "method": _Key(_one_of("airy", "bvp"), "airy"),
        },
    },
    "sweep": {
        "sweep": {
            "check": _Key(_one_of("navier_l2", "navier_hm1", "nonslip"), "navier_l2"),
            "nu": _Key(_num_list, (1e-2, 1e-3, 1e-4)),
            "k": _Key(_int, 1),
        },
    },
    "spectrum": {
        "case": {
            "nu": _Key(_num, 1e-3),
            "k": _Key(_int, 1),
            "bc": _Key(_bc, "non_slip"),
            "n": _Key(_int, 0),
        },
    },
    "evolve": {
        "case": {
            "nu": _Key(_num, 1e-3),
            "k": _Key(_int, 1),
            "bc": _Key(_bc, "non_slip"),
            "dt": _Key(_num, 0.0),
            "t_end": _Key(_num, 0.0),
            "n": _Key(_int, 0),
            "data": _Key(_one_of("stream_bump"), "stream_bump"),
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
            "blocks": _Key(_list_of("airy", "resolvent"), ("airy", "resolvent")),
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
    lines = {}                      # (section, key) -> line number of its value
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
        lines[section, key] = lineno
    _validate(command, out, lines)
    return out


#: Commands whose cases must satisfy nu k^2 <= 1 and fit a grid: the section
#: and the key of the wavenumber their grids are built at.
_CASE_CHECKED = {"sweep": ("sweep", "k"), "resolvent": ("case", "k"),
                 "report": ("report", "k"), "homog": ("case", "k"),
                 "spectrum": ("case", "k"), "evolve": ("case", "k"),
                 "threshold": ("threshold", "k_max")}


def _check_case(command, nu, k, n):
    """nu k^2 <= 1, and a grid order within the cap: the given n, or
    default_order(nu, k) when n is 0."""
    if nu * k**2 > 1.0:
        raise ConfigError(f"{command} requires nu k^2 <= 1, got nu = {nu:g}, k = {k}")
    if n:
        if not 4 <= n <= N_MAX:
            raise ConfigError(f"n = {n} must lie in [4, {N_MAX}]")
        return
    try:
        default_order(nu, k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_airy(nu, k, where):
    """The slanted-Airy hypothesis of homog's default method, as
    resolvent.homogeneous_airy requires it."""
    from .resolvent import K0_LARGE, ResolventCase, airy_admissible
    case = ResolventCase(nu=nu, k=k)
    if not airy_admissible(case):
        raise ConfigError(
            f"{where}method = airy requires L >= 6|k| or L >= |k| >= {K0_LARGE}, "
            f"got L = {case.L:.2f} at nu = {nu:g}, k = {k} (method = bvp has "
            f"no such bound)")


def _where(lines, section, *keys):
    """'line n: ' for the first of keys given in the text, else ''."""
    return next((f"line {lines[section, key]}: " for key in keys
                 if (section, key) in lines), "")


def _validate(command, cfg, lines):
    for sec, keys in cfg.items():
        if "nu" in keys:
            nus = keys["nu"] if isinstance(keys["nu"], tuple) else (keys["nu"],)
            if any(nu <= 0 for nu in nus):
                raise ConfigError("nu must be positive")
        if "k" in keys and abs(keys["k"]) < 1:
            raise ConfigError("k must satisfy |k| >= 1")
    if command == "sweep":
        nus, k = cfg["sweep"]["nu"], cfg["sweep"]["k"]
        if not nus or math.log10(max(nus) / min(nus)) < 2.0 - 1e-9:
            raise ConfigError("exponent fit requires >= 2 decades")
    if command in _CASE_CHECKED:
        name, k_key = _CASE_CHECKED[command]
        sec = cfg[name]
        nus = sec["nu"] if isinstance(sec["nu"], tuple) else (sec["nu"],)
        # every case the command will solve, checked before the first runs
        for nu in nus:
            _check_case(command, nu, sec[k_key], sec.get("n", 0))
    if command == "resolvent" and cfg["case"]["bc"] == "navier_slip" \
            and cfg["case"]["path"] != "auto":
        raise ConfigError(f"{_where(lines, 'case', 'path')}path = "
                          f"{cfg['case']['path']} requires bc = non_slip; the "
                          f"navier_slip solve has one path")
    if command == "homog" and cfg["case"]["method"] == "airy":
        c = cfg["case"]
        _check_airy(c["nu"], c["k"], _where(lines, "case", "method", "nu", "k"))
    if command == "threshold":
        lo, hi = cfg["threshold"]["amplitude_lo"], cfg["threshold"]["amplitude_hi"]
        if not lo < hi:
            raise ConfigError("amplitude_lo must be < amplitude_hi")
        k_max = cfg["threshold"]["k_max"]
        if k_max < 8:
            raise ConfigError(f"{_where(lines, 'threshold', 'k_max')}threshold "
                              f"probes require k_max >= 8, got {k_max}")
