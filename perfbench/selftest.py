#!/usr/bin/env python3
"""Self-test of the benchmark's checks: real outputs pass, perturbed ones fail.

    python3 perfbench/selftest.py        (from the repository root, ~45 s)

Each workload runs one real round and its oracle values.  Every check must pass on them.  Then, for each check,
one value that the check reads is perturbed; that check must fail, no check
outside the expected ones may fail, and the tally must count at least one
failed operation when the check is tied to operations.  Exit status 0 means
every check rejected its perturbed value.
"""

import copy
import sys

import run

run.import_package()

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402


def _scale(d, key, factor):
    d[key] = d[key] * factor


def _add_constant(w, rel):
    return w + rel * np.max(np.abs(w))


def nonslip_cases():
    op = W.NonslipResolvent.op

    def sigma(data, rel):
        def f(out, vals):
            for v in vals:
                if v["data"] == data:
                    v["sigma"] *= 1 + rel
        return f

    def moments(out, vals):
        vals[0]["w"] = _add_constant(vals[0]["w"], 1e-6)
    return [
        ("nonslip_l2_w_l2", lambda o, v: _scale(o[op("l2", 1e-5)], "l2", 3.0)),
        ("nonslip_l2_w_l2", lambda o, v: _scale(o[op("l2", 1e-4)], "l2", 1.3)),  # r^2
        ("nonslip_hm1_u_l2", lambda o, v: _scale(o[op("pair", 1e-5)], "u_l2", 3.0)),
        ("sigma_max l2", sigma("l2", 1e-6)),
        ("sigma_max pair", sigma("pair", 1e-3)),
        ("maximizer wall moments l2 nu=0.0001", moments),
    ]


def dissipation_cases():
    op = W.EnhancedDissipation.op

    def rate(bc, nu, k):
        return lambda o, e: _scale(o[op(bc, nu, k)], "rate", 2.0)

    def moments(o, e):
        cn = o[op("non_slip", 1e-4, 2)]
        cn["w"] = _add_constant(cn["w"], 1e-6)

    def first_order(o, e):
        e[1] = e[0] / 2
    gap = W.EnhancedDissipation.gap_op(1e-5)
    cases = [("gap exponent", lambda o, e: _scale(o, gap, 2.0)),
             ("final wall moments nu=0.0001 k=2", moments),
             ("CN order", first_order)]
    for bc in W.EnhancedDissipation.BCS:
        cases += [
            (f"decay rate nu exponent {bc}", rate(bc, 1e-5, 1)),
            (f"decay rate k exponent {bc}", rate(bc, 1e-4, 4)),
            (f"space-time ratio {bc} nu=1e-05 k=1",
             lambda o, e, bc=bc: o[op(bc, 1e-5, 1)].__setitem__("ratio", 10.0)),
        ]
    return cases


def nonlinear_cases(wl):
    a, op = wl.amps[0], wl.ops[0]

    def state(o):
        return o[op]["state"]

    def verdict(o, v):
        o[op]["verdict"] = "growing"

    def energy(o, v):
        o[op]["total"] = 50.0 * a

    def steps(o, v):
        state(o).time += wl.dt

    def moments(o, v):
        state(o).modes[3] = _add_constant(state(o).modes[3], 1e-6)

    def mode1(o, v):
        v[op] = (v[op][0] * (1 + 2e-3), v[op][1])
    return [
        (f"verdict {op}", verdict),
        (f"sum E_k / a {op}", energy),
        (f"steps {op}", steps),
        (f"wall moments of mode 3 {op}", moments),
        ("quadratic scaling |w_2|", lambda o, v: state(o).modes.__setitem__(
            2, 1.05 * state(o).modes[2])),
        ("quadratic scaling |mean|", lambda o, v: setattr(
            state(o), "mean_shear", 1.05 * state(o).mean_shear)),
        (f"mode 1 vs linear propagator {op}", mode1),
    ]


def run_cases(title, wl, cases):
    out = run.run_round(wl, {})
    vals = wl.oracle_values(out)
    base = wl.round_checks(out) + wl.oracle_checks(vals)
    problems = [f"{title}: real value fails {c.name}: {c.detail}"
                for c in base if not c.ok]
    rejected = 0
    for prefix, perturb in cases:
        o, v = copy.deepcopy(out), copy.deepcopy(vals)
        perturb(o, v)
        rounds, oracle = [wl.round_checks(o)], wl.oracle_checks(v)
        bad = [c for c in rounds[0] + oracle if not c.ok]
        _, failed, _ = run.tally(wl, rounds, oracle)
        hit = [c for c in bad if c.name.startswith(prefix)]
        stray = [c.name for c in bad if not c.name.startswith(prefix)]
        if not hit:
            problems.append(f"{title}: perturbed value passes '{prefix}'")
        elif stray:
            problems.append(f"{title}: perturbing '{prefix}' also fails {stray}")
        elif any(c.ops for c in hit) and failed == 0:
            problems.append(f"{title}: '{prefix}' failed but no operation counted")
        else:
            rejected += 1
            print(f"ok   {title}: perturbed value fails {hit[0].name}: {hit[0].detail}")
    return len(base), rejected, len(cases), problems


def main():
    nl = W.NonlinearStability(seed=3)
    suites = [
        ("nonslip_resolvent", W.NonslipResolvent(seed=3), nonslip_cases()),
        ("enhanced_dissipation", W.EnhancedDissipation(seed=3), dissipation_cases()),
        ("nonlinear_stability", nl, nonlinear_cases(nl)),
    ]
    problems = []
    for title, wl, cases in suites:
        n_checks, rejected, n_cases, p = run_cases(title, wl, cases)
        print(f"{title}: {n_checks} checks on real values, "
              f"{rejected}/{n_cases} perturbations rejected")
        problems += p
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
