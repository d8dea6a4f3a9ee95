"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
enforces its runtime budget.  Tolerances are pinned here, not configurable.
"""

import cmath
import math
import time

import numpy as np

from couettelab import airy as airy_kernel
from couettelab import evolution as evo
from couettelab import harness as H
from couettelab import nonlinear as NL
from couettelab.cli import main as cli_main
from couettelab.grid import build_diff_ops, build_grid, default_order, l1_norm, l2_norm
from couettelab.resolvent import ResolventCase, homogeneous_airy, homogeneous_bvp

from oracles import airy_maclaurin

NU_SWEEP = (1e-3, 3.16e-4, 1e-4, 3.16e-5, 1e-5, 3.16e-6, 1e-6)


class _criterion:
    def __init__(self, number, label, budget_s):
        self.number, self.label, self.budget = number, label, budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None and elapsed <= self.budget else "FAIL"
        print(f"{status} criterion {self.number}: {self.label} "
              f"({elapsed:.1f} s / budget {self.budget:.0f} s)")
        if exc_type is None:
            assert elapsed <= self.budget, \
                f"criterion {self.number} exceeded its runtime budget"
        return False


def mkgrid(nu, k, n=None):
    g = build_grid(n if n else default_order(nu, k))
    return g, build_diff_ops(g)


def moment_free_data(g, ops, k):
    phi0 = (1 - g.nodes**2) ** 2 * np.exp(0.5j * np.pi * g.nodes)
    return (ops.d2 - k**2 * np.eye(g.n_points)) @ phi0


def test_criterion_01_airy_constant():
    with _criterion(1, "log-derivative sup a(0) = -0.4843 +- 5e-4, < -1/3", 10):
        a0 = airy_kernel.log_derivative_sup(0.0)
        assert abs(a0 - (-0.4843)) <= 5e-4
        assert a0 < -1.0 / 3.0


def test_criterion_02_airy_kernel_accuracy():
    with _criterion(2, "Ai/Ai'/primitive vs 50-digit oracle; Wronskian", 5):
        b = airy_kernel.airy(0.0)
        assert abs(b.ai - airy_maclaurin(0)) <= 1e-11 * abs(airy_maclaurin(0))
        ex = airy_maclaurin(0, derivative=True)
        assert abs(b.ai_prime - ex) <= 1e-11 * abs(ex)
        v = airy_kernel.a0(0.0)
        assert abs(v.a0 - 1.0 / 3.0) <= 1e-9 / 3.0
        rng = np.random.default_rng(2)
        count = 0
        while count < 20:
            z = complex(rng.uniform(0.2, 15.0)
                        * np.exp(1j * rng.uniform(-np.pi, np.pi)))
            if ((2.0 / 3.0) * z * cmath.sqrt(z)).real < -2.0:
                continue  # Wronskian cancels to exp(2|Re zeta|) there
            count += 1
            ba = airy_kernel.airy(z)
            w = cmath.exp(2j * math.pi / 3)
            b1, b2 = airy_kernel.airy(z * w), airy_kernel.airy(z / w)
            bi = (cmath.exp(1j * math.pi / 6) * b1.ai * 10.0**b1.exp10
                  + cmath.exp(-1j * math.pi / 6) * b2.ai * 10.0**b2.exp10)
            bip = (cmath.exp(5j * math.pi / 6) * b1.ai_prime * 10.0**b1.exp10
                   + cmath.exp(-5j * math.pi / 6) * b2.ai_prime * 10.0**b2.exp10)
            wr = (ba.ai * bip - ba.ai_prime * bi) * 10.0**ba.exp10
            assert abs(wr - 1.0 / math.pi) <= 1e-9 / math.pi


def test_criterion_03_navier_resolvent_scaling():
    with _criterion(3, "vorticity-Dirichlet exponents -1/3 (w), -1/6 (u)", 300):
        fits, constants, _ = H.verify_sweep("navier_l2", NU_SWEEP, k=1)
        by_name = {f.name: f for f in fits}
        fw = by_name["navier_l2_w_l2"]
        fu = by_name["navier_l2_u_l2"]
        assert abs(fw.exponent + 1 / 3) <= 0.05 and fw.r2 >= 0.98, fw
        assert abs(fu.exponent + 1 / 6) <= 0.05 and fu.r2 >= 0.98, fu
        # contour-shift smallness for the recorded constant
        assert constants["epsilon_times_C"] <= 0.5


def test_criterion_04_nonslip_resolvent_scaling():
    with _criterion(4, "velocity-Dirichlet exponents -5/12 (w, L2), -1/2 (u, pair)", 600):
        fits, _, _ = H.verify_sweep("nonslip", NU_SWEEP, k=1)
        by_name = {f.name: f for f in fits}
        fw = by_name["nonslip_l2_w_l2"]
        fu = by_name["nonslip_hm1_u_l2"]
        assert abs(fw.exponent + 5 / 12) <= 0.05 and fw.r2 >= 0.98, fw
        assert abs(fu.exponent + 1 / 2) <= 0.05 and fu.r2 >= 0.98, fu


# every (nu, k) here satisfies the slanted-Airy hypothesis L >= 6k
GRID_5 = dict(nus=(3e-4, 1e-4, 3e-5), ks=(1, 2, 3),
              lams=(-0.9, -0.4, 0.0, 0.5, 0.95))


def test_criterion_05_homogeneous_cross_validation():
    with _criterion(5, "slanted-Airy vs direct solves, 1e-6; L1 constant", 120):
        c_l1 = 0.0
        for nu in GRID_5["nus"]:
            for k in GRID_5["ks"]:
                g, ops = mkgrid(nu, k)
                for lam in GRID_5["lams"]:
                    case = ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
                    pa = homogeneous_airy(case, g, ops)
                    pb = homogeneous_bvp(case, g, ops)
                    assert l2_norm(g, pa.w1 - pb.w1) <= 1e-6 * l2_norm(g, pb.w1)
                    assert l2_norm(g, pa.w2 - pb.w2) <= 1e-6 * l2_norm(g, pb.w2)
                    c_l1 = max(c_l1, l1_norm(g, pa.w1) + l1_norm(g, pa.w2))
        # resolution stability of the recorded constant under N doubling
        c_l1_fine = 0.0
        for nu in GRID_5["nus"]:
            for k in GRID_5["ks"]:
                g, ops = mkgrid(nu, k, n=2 * default_order(nu, k))
                for lam in GRID_5["lams"]:
                    case = ResolventCase(nu=nu, k=k, lam=lam, bc="non_slip")
                    pa = homogeneous_airy(case, g, ops)
                    c_l1_fine = max(c_l1_fine,
                                    l1_norm(g, pa.w1) + l1_norm(g, pa.w2))
        assert abs(c_l1 - c_l1_fine) <= 0.01 * c_l1_fine, (c_l1, c_l1_fine)


def test_criterion_06_coefficient_bounds():
    with _criterion(6, "c1/c2 weighted constants stable to 1% under doubling", 180):
        for k in (1, 2):
            base, n = H.verify_c_bounds(1e-4, k)
            fine, _ = H.verify_c_bounds(1e-4, k, n_override=2 * n)
            for key in base:
                assert base[key] > 0
                assert abs(base[key] - fine[key]) <= 0.01 * fine[key], \
                    (key, base[key], fine[key])


def test_criterion_07_gap_and_decay_scalings():
    with _criterion(7, "eigen-gap nu^{1/3}; decay-rate nu and k exponents", 600):
        gaps = []
        nus_gap = (1e-2, 1e-3, 1e-4, 1e-5)
        for nu in nus_gap:
            g, ops = mkgrid(nu, 1)
            rep = H.spectrum(ResolventCase(nu=nu, k=1, bc="non_slip"), g, ops,
                             want_psi=False)
            gaps.append(rep.gap)
        fit = H.fit_loglog("gap", nus_gap, gaps, 1 / 3)
        assert abs(fit.exponent - 1 / 3) <= 0.05 and fit.r2 >= 0.98, fit

        for bc in ("non_slip", "navier_slip"):
            rates = {}
            for nu, k in [(1e-3, 1), (1e-4, 1), (1e-5, 1), (1e-4, 2), (1e-4, 4)]:
                g, ops = mkgrid(nu, k)
                w0 = moment_free_data(g, ops, k)
                case = evo.EvolutionCase(nu=nu, k=k, omega0=w0,
                                         dt=evo.dt_accuracy_bound(nu, k),
                                         t_end=6.0 * (nu * k**2) ** (-1 / 3),
                                         bc=bc, check_moments=(bc == "non_slip"))
                led, _ = evo.run(case, g, ops, store_every=2, auto_extend=False)
                rates[(nu, k)] = evo.decay_rate(led.decay_samples, nu, k)[0]
            fnu = H.fit_loglog("rate_nu", [1e-3, 1e-4, 1e-5],
                               [rates[(n, 1)] for n in (1e-3, 1e-4, 1e-5)], 1 / 3)
            assert abs(fnu.exponent - 1 / 3) <= 0.07, (bc, fnu)
            fk = H.fit_loglog("rate_k", [1, 2, 4],
                              [rates[(1e-4, k)] for k in (1, 2, 4)], 2 / 3)
            assert abs(fk.exponent - 2 / 3) <= 0.1, (bc, fk)


RUNS_8 = [(1e-3, 1), (1e-4, 1), (1e-5, 1), (1e-4, 2), (1e-3, 4)]


def test_criterion_08_space_time_estimate():
    with _criterion(8, "space-time ratio bounded; stable under refinement", 900):
        ratios = []
        for nu, k in RUNS_8:
            g, ops = mkgrid(nu, k)
            w0 = moment_free_data(g, ops, k)
            case = evo.EvolutionCase(nu=nu, k=k, omega0=w0,
                                     dt=evo.dt_accuracy_bound(nu, k),
                                     t_end=4.0 * (nu * k**2) ** (-1 / 3),
                                     bc="non_slip")
            led, _ = evo.run(case, g, ops, store_every=2)
            ratios.append(evo.space_time_ratio(led, nu, k))
        assert max(ratios) < 10.0, ratios

        # refinement stability at (1e-4, 1): halve dt and N from an elevated base
        nu, k = 1e-4, 1
        n0 = 2 * default_order(nu, k)
        dt0 = evo.dt_accuracy_bound(nu, k)
        vals = {}
        for tag, n, dt in [("base", n0, dt0), ("half_n", n0 // 2, dt0),
                           ("half_dt", n0, dt0 / 2)]:
            g, ops = mkgrid(nu, k, n=n)
            w0 = moment_free_data(g, ops, k)
            case = evo.EvolutionCase(nu=nu, k=k, omega0=w0, dt=dt,
                                     t_end=4.0 * (nu * k**2) ** (-1 / 3),
                                     bc="non_slip")
            led, _ = evo.run(case, g, ops, store_every=2, auto_extend=False)
            vals[tag] = evo.space_time_ratio(led, nu, k)
        assert abs(vals["half_n"] - vals["base"]) <= 0.01 * vals["base"], vals
        assert abs(vals["half_dt"] - vals["base"]) <= 0.01 * vals["base"], vals


def test_criterion_09_homogeneous_splitting():
    with _criterion(9, "three-part splitting reproduces the direct run", 300):
        nu, k = 1e-3, 2
        g, ops = mkgrid(nu, k)
        w0 = moment_free_data(g, ops, k)
        case = evo.EvolutionCase(nu=nu, k=k, omega0=w0,
                                 dt=evo.dt_accuracy_bound(nu, k),
                                 t_end=3.0 * (nu * k**2) ** (-1 / 3),
                                 bc="non_slip")
        parts, err = evo.homogeneous_splitting(case, g, ops, store_every=2)
        assert err <= 1e-6, err
        mu = (nu * k**2) ** (1 / 3)
        t1, v1 = parts["part1"].decay_samples[-1]
        assert abs(v1 - math.exp(-mu * t1) * l2_norm(g, w0)) <= 1e-10 * v1


def test_criterion_10_nonlinear_stability_side():
    with _criterion(10, "desk-scale stability: sum E_k <= C c nu^{1/2}", 1800):
        c_small = 0.01
        recorded = []
        for nu in (1e-3, 1e-4):
            g, ops = mkgrid(nu, 8)
            amp = c_small * math.sqrt(nu)
            verdict, energy, _ = NL.run_perturbation(nu, amp, g, ops, k_max=8)
            assert verdict == "stable", (nu, verdict)
            recorded.append(energy.total / amp)
        c_big = max(recorded)
        assert c_big < 50.0, recorded
        print(f"  recorded nonlinear constant C = {c_big:.3f} "
              f"(ratios {', '.join(f'{r:.3f}' for r in recorded)})")


def test_criterion_11_determinism(tmp_path):
    with _criterion(11, "byte-identical reports across identical runs", 120):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli_main(["report", "--out", a, "--jobs", "2"]) == 0
        assert cli_main(["report", "--out", b, "--jobs", "1"]) == 0
        for name in ("records.csv", "report.json"):
            with open(f"{a}/{name}", "rb") as fa, open(f"{b}/{name}", "rb") as fb:
                assert fa.read() == fb.read(), name
