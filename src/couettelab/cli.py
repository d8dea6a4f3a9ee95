"""Batch CLI: every capability as a subcommand emitting CSV/JSON/SVG reports.

    couettelab <subcommand> [--config PATH] [--out DIR] [--jobs N]
               [--seed S] [--format csv|json|svg ...]

Exit status is 0 only when every verdict in the emitted report passes.
"""

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import evolution as evo
from . import harness
from . import nonlinear as nl
from .airy import DELTA1, a0 as airy_a0, airy as airy_fn, log_derivative_sup
from .config import ConfigError, parse_config
from .grid import grid_for, real_apply, wall_moment_residuals
from .norms import norms
from .reports import CaseRecord, ReportDocument, emit, provenance
from .resolvent import (ResolventCase, direct_forcing, homogeneous_airy,
                        homogeneous_bvp, solve)


def _load(args, command):
    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    cfg = parse_config(text, command)
    return cfg, text


def _finish(report, args, svg_specs=()):
    formats = tuple(args.format) if args.format else ("csv", "json")
    emit(report, args.out, formats=formats, svg_specs=svg_specs)
    for name, ok in sorted(report.verdicts.items()):
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if report.all_passed() else 1


def cmd_airy(args):
    cfg, text = _load(args, "airy")
    a = cfg["airy"]
    rep = ReportDocument(provenance=provenance(text))
    xs = np.arange(a["x_min"], a["x_max"] + 1e-12, a["step"])
    if a["samples"]:
        rng = np.random.default_rng(args.seed)
        xs = np.sort(rng.uniform(a["x_min"], a["x_max"], a["samples"]))
    for i, x in enumerate(xs):
        z = complex(x, a["delta"])
        b = airy_fn(z)
        v = airy_a0(z)
        rep.add_record(CaseRecord(
            id=f"airy_{i:04d}",
            params={"re_z": float(x), "im_z": a["delta"]},
            results={"ai_re": b.ai.real, "ai_im": b.ai.imag,
                     "ai_exp10": b.exp10,
                     "a0_re": v.a0.real, "a0_im": v.a0.imag,
                     "a0_exp10": v.exp10}))
    sup = log_derivative_sup(a["delta"])
    rep.verdicts["log_derivative_sup_below_third"] = bool(sup < -1.0 / 3.0) \
        if a["delta"] <= DELTA1 else True
    rep.fits.append({"name": "log_derivative_sup", "delta": a["delta"],
                     "value": sup})
    return _finish(rep, args)


def cmd_resolvent(args):
    cfg, text = _load(args, "resolvent")
    c = cfg["case"]
    case = ResolventCase(nu=c["nu"], k=c["k"], lam=c["lambda"],
                         epsilon=c["epsilon"], bc=c["bc"])
    g, ops = grid_for(c["nu"], c["k"], c["n"])
    fvals = harness.FORCINGS[c["forcing"]](g.nodes)
    kw = {"path": c["path"]} if c["bc"] == "non_slip" else {}
    sol = solve(case, direct_forcing(fvals), g, ops, **kw)
    nb = norms(sol, case, g, ops)
    rep = ReportDocument(provenance=provenance(text))
    mom = wall_moment_residuals(g, sol.w, case.k)
    rep.add_record(CaseRecord(
        id="resolvent_0000",
        params={"nu": c["nu"], "k": c["k"], "lambda": c["lambda"],
                "epsilon": c["epsilon"], "bc": c["bc"], "n": g.order,
                "forcing": c["forcing"]},
        results={**nb.as_dict(), "moment_plus": mom[0], "moment_minus": mom[1]}))
    if c["bc"] == "non_slip":
        rep.verdicts["moments_zero"] = bool(mom.max() < 1e-8)
    return _finish(rep, args)


def cmd_homog(args):
    cfg, text = _load(args, "homog")
    c = cfg["case"]
    case = ResolventCase(nu=c["nu"], k=c["k"], lam=c["lambda"],
                         epsilon=c["epsilon"], bc="non_slip")
    g, ops = grid_for(c["nu"], c["k"], c["n"])
    pair = (homogeneous_airy if c["method"] == "airy" else homogeneous_bvp)(
        case, g, ops)
    dphi1 = real_apply(ops.d1, pair.phi1)
    dphi2 = real_apply(ops.d1, pair.phi2)
    rep = ReportDocument(provenance=provenance(text))
    rep.add_record(CaseRecord(
        id="homog_0000",
        params={"nu": c["nu"], "k": c["k"], "lambda": c["lambda"],
                "method": pair.method, "n": g.order},
        results={
            "phi1_prime_right": float(abs(dphi1[0])),
            "phi1_prime_left": float(abs(dphi1[-1])),
            "phi2_prime_left": float(abs(dphi2[-1])),
            "w1_l1": float(np.sum(g.quad_weights * np.abs(pair.w1))),
            "w2_l1": float(np.sum(g.quad_weights * np.abs(pair.w2))),
        }))
    r = rep.records[0].results
    rep.verdicts["wall_derivatives"] = bool(
        abs(r["phi1_prime_right"] - 1) < 1e-6 and r["phi1_prime_left"] < 1e-6
        and abs(r["phi2_prime_left"] - 1) < 1e-6)
    return _finish(rep, args)


def cmd_sweep(args):
    cfg, text = _load(args, "sweep")
    s = cfg["sweep"]
    check = harness.SWEEP_CHECKS[s["check"]]
    fits, constants, rows = harness.verify_sweep(s["check"], s["nu"], s["k"])
    rep = ReportDocument(provenance=provenance(text))
    for i, row in enumerate(rows):
        rep.add_record(CaseRecord(
            id=f"sweep_{i:04d}",
            params={"nu": row["nu"], "k": row["k"], "n": row["n"],
                    "data": row["data"], "bc": check["bc"]},
            results={key: v for key, v in row.items()
                     if key not in ("nu", "k", "n", "data")}))
    svg_specs = []
    for f, (_, data, col, _) in zip(fits, check["fits"]):
        rep.fits.append(f.as_dict())
        rep.verdicts[f.name] = f.passed
        fitted = [r for r in rows if r["data"] == data]
        svg_specs.append({
            "name": f.name,
            "xs": [r["nu"] for r in fitted],
            "ys": [r[col] for r in fitted],
            "fit": {"exponent": f.exponent, "intercept": f.intercept},
            "targets": (f.target_exponent,),
            "title": f"{f.name}: slope {f.exponent:.4f} "
                     f"(target {f.target_exponent:.4f})",
        })
    for name, val in constants.items():
        rep.fits.append({"name": f"constant_{name}", "value": val})
    return _finish(rep, args, svg_specs=svg_specs)


def cmd_spectrum(args):
    cfg, text = _load(args, "spectrum")
    c = cfg["case"]
    case = ResolventCase(nu=c["nu"], k=c["k"], bc=c["bc"])
    g, ops = grid_for(c["nu"], c["k"], c["n"])
    repg = harness.spectrum(case, g, ops)
    rep = ReportDocument(provenance=provenance(text))
    lead = sorted(repg.eigenvalues, key=lambda m: -m.real)[:12]
    for i, mu in enumerate(lead):
        rep.add_record(CaseRecord(id=f"eig_{i:04d}",
                                  params={"nu": c["nu"], "k": c["k"], "bc": c["bc"]},
                                  results={"re": mu.real, "im": mu.imag}))
    rep.fits.append({"name": "gap", "value": repg.gap})
    rep.fits.append({"name": "pseudo_abscissa", "value": repg.pseudo_abscissa})
    if not math.isnan(repg.psi):
        rep.fits.append({"name": "psi", "value": repg.psi})
        rep.verdicts["psi_below_gap"] = bool(repg.psi <= repg.gap + 1e-8)
    rep.verdicts["gap_positive"] = bool(repg.gap > 0)
    return _finish(rep, args)


def _named_data(name, g, ops, k):
    """The initial vorticity `name` names; "stream_bump" is the only one."""
    phi0 = (1 - g.nodes**2) ** 2 * np.exp(0.5j * np.pi * g.nodes)
    return (ops.d2 - k**2 * np.eye(g.n_points)) @ phi0


def cmd_evolve(args):
    cfg, text = _load(args, "evolve")
    c = cfg["case"]
    g, ops = grid_for(c["nu"], c["k"], c["n"])
    w0 = _named_data(c["data"], g, ops, c["k"])
    dt = c["dt"] or evo.dt_accuracy_bound(c["nu"], c["k"])
    t_end = c["t_end"] or 2.0 * (c["nu"] * c["k"] ** 2) ** (-1 / 3)
    case = evo.EvolutionCase(nu=c["nu"], k=c["k"], omega0=w0, dt=dt,
                             t_end=t_end, bc=c["bc"])
    led, _ = evo.run(case, g, ops)
    rep = ReportDocument(provenance=provenance(text))
    for i, (t, v) in enumerate(led.decay_samples[:: max(1, len(led.decay_samples) // 400)]):
        rep.add_record(CaseRecord(id=f"t_{i:05d}", params={"t": t},
                                  results={"w_l2": v}))
    rate, r2 = evo.decay_rate(led.decay_samples, c["nu"], c["k"])
    rep.fits.append({"name": "decay_rate", "value": rate, "r2": r2})
    rep.fits.append({"name": "space_time_ratio",
                     "value": evo.space_time_ratio(led, c["nu"], c["k"])})
    rep.verdicts["decayed"] = bool(
        led.decay_samples[-1][1] < led.decay_samples[0][1])
    return _finish(rep, args)


def cmd_threshold(args):
    cfg, text = _load(args, "threshold")
    t = cfg["threshold"]
    probe = nl.ThresholdProbe(nu_values=tuple(t["nu"]),
                              amplitude_lo=t["amplitude_lo"],
                              amplitude_hi=t["amplitude_hi"])

    def builder(nu):
        return grid_for(nu, t["k_max"])

    probe = nl.probe_threshold(probe, builder, k_max=t["k_max"],
                               t_end=t["t_end"] or None)
    rep = ReportDocument(provenance=provenance(text))
    for i, (nu, amp, verdict) in enumerate(probe.verdicts):
        rep.add_record(CaseRecord(id=f"probe_{i:04d}",
                                  params={"nu": nu, "amplitude": amp},
                                  results={"verdict": verdict}))
    for nu, (lo, hi) in sorted(probe.brackets.items()):
        rep.fits.append({"name": "bracket", "nu": nu, "lo": lo, "hi": hi})
    if probe.fitted_beta is not None:
        rep.fits.append({"name": "fitted_beta", "value": probe.fitted_beta,
                         "exploratory": True})
    rep.verdicts["verdicts_monotone"] = probe.monotone
    return _finish(rep, args)


def cmd_report(args):
    """Small deterministic battery: Airy constants plus a resolvent sweep."""
    cfg, text = _load(args, "report")
    r = cfg["report"]
    blocks = r["blocks"]
    rep = ReportDocument(provenance=provenance(text))
    jobs = max(1, args.jobs)

    if "airy" in blocks:
        sup = log_derivative_sup(0.0)
        b = airy_fn(0.0)
        rep.add_record(CaseRecord(id="airy_const", params={},
                                  results={"ai0": b.ai.real,
                                           "aip0": b.ai_prime.real,
                                           "a_of_0": sup}))
        rep.verdicts["airy_a0_below_third"] = bool(sup < -1.0 / 3.0)

    if "resolvent" in blocks:
        def one(inu_nu):
            i, nu = inu_nu
            k = r["k"]
            g, ops = grid_for(nu, k)
            case = ResolventCase(nu=nu, k=k, lam=0.0, bc="non_slip")
            fvals = harness.FORCINGS["exp_ipiy"](g.nodes)
            sol = solve(case, direct_forcing(fvals), g, ops)
            nb = norms(sol, case, g, ops)
            mom = wall_moment_residuals(g, sol.w, k)
            return CaseRecord(id=f"resolvent_{i:04d}",
                              params={"nu": nu, "k": k, "bc": "non_slip"},
                              results={**nb.as_dict(), "moment_plus": mom[0]})
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for rec in pool.map(one, enumerate(r["nu"])):
                rep.add_record(rec)
        rep.verdicts["resolvent_moments"] = bool(
            max(rec.results["moment_plus"] for rec in rep.records
                if rec.id.startswith("resolvent")) < 1e-8)

    return _finish(rep, args)


COMMANDS = {
    "airy": cmd_airy,
    "resolvent": cmd_resolvent,
    "homog": cmd_homog,
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "threshold": cmd_threshold,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="couettelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default="out")
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", action="append",
                       choices=["csv", "json", "svg"])
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
