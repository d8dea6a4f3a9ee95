"""Span tracing of the couettelab layers, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of each layer and
the dense linear algebra the package calls.  Each call records one span
(name, start, end, parent) in memory; `per_layer()` turns the spans into the
per-layer metrics of BENCHMARK.json and `dump()` writes them out.

Several package modules bind names with ``from .x import y``, so a wrapped
function is replaced under every name that binds it in any couettelab module.
Linear algebra is wrapped by giving each package module its own copy of the
``np`` / ``sla`` namespaces; the benchmark's own oracles keep the real ones.
"""

import functools
import inspect
import json
import sys
import time
import types

import numpy
import scipy.linalg

from couettelab import evolution, grid, harness, nonlinear, norms, resolvent

SPAN_NAMES = (
    "grid.build", "linalg.lu_factor", "linalg.lu_solve", "linalg.dense_solve",
    "linalg.eig_svd", "airy", "resolvent.homog_airy", "resolvent.homog_bvp",
    "resolvent.elliptic", "resolvent.recover_velocity", "harness.response",
    "harness.spectrum", "norms", "evolution.cn_setup", "evolution.cn_step",
    "evolution.ledger", "nonlinear.advance", "nonlinear.rhs",
    "nonlinear.velocities", "nonlinear.energy",
)

# metric name -> (span name, "calls" | "s")
SPAN_METRICS = {
    "grid.build_calls": ("grid.build", "calls"),
    "grid.build_s": ("grid.build", "s"),
    "linalg.lu_factor_calls": ("linalg.lu_factor", "calls"),
    "linalg.lu_factor_s": ("linalg.lu_factor", "s"),
    "linalg.lu_solve_calls": ("linalg.lu_solve", "calls"),
    "linalg.lu_solve_s": ("linalg.lu_solve", "s"),
    "linalg.dense_solve_calls": ("linalg.dense_solve", "calls"),
    "linalg.dense_solve_s": ("linalg.dense_solve", "s"),
    "linalg.eig_svd_s": ("linalg.eig_svd", "s"),
    "airy.calls": ("airy", "calls"),
    "airy.s": ("airy", "s"),
    "resolvent.homog_airy_calls": ("resolvent.homog_airy", "calls"),
    "resolvent.homog_airy_s": ("resolvent.homog_airy", "s"),
    "resolvent.homog_bvp_calls": ("resolvent.homog_bvp", "calls"),
    "resolvent.homog_bvp_s": ("resolvent.homog_bvp", "s"),
    "resolvent.elliptic_solves": ("resolvent.elliptic", "calls"),
    "resolvent.elliptic_s": ("resolvent.elliptic", "s"),
    "resolvent.recover_velocity_calls": ("resolvent.recover_velocity", "calls"),
    "resolvent.recover_velocity_s": ("resolvent.recover_velocity", "s"),
    "harness.lambda_points": ("harness.response", "calls"),
    "harness.response_s": ("harness.response", "s"),
    "harness.spectrum_s": ("harness.spectrum", "s"),
    "norms.calls": ("norms", "calls"),
    "norms.s": ("norms", "s"),
    "evolution.cn_setups": ("evolution.cn_setup", "calls"),
    "evolution.cn_setup_s": ("evolution.cn_setup", "s"),
    "evolution.cn_steps": ("evolution.cn_step", "calls"),
    "evolution.cn_step_s": ("evolution.cn_step", "s"),
    "evolution.ledger_takes": ("evolution.ledger", "calls"),
    "evolution.ledger_s": ("evolution.ledger", "s"),
    "nonlinear.steps": ("nonlinear.advance", "calls"),
    "nonlinear.advance_s": ("nonlinear.advance", "s"),
    "nonlinear.rhs_s": ("nonlinear.rhs", "s"),
    "nonlinear.velocities_s": ("nonlinear.velocities", "s"),
    "nonlinear.energy_takes": ("nonlinear.energy", "calls"),
    "nonlinear.energy_s": ("nonlinear.energy", "s"),
}

# metrics counted by the wrappers rather than read off the spans
COUNTERS = ("airy.points", "harness.power_cap_hits", "linalg.gflop_computed")


def _factor_flops(a):
    """Computed real flops of an LU factorization: 2/3 n^3, times 4 if complex."""
    n = numpy.shape(a)[0]
    return (8.0 if numpy.iscomplexobj(a) else 2.0) / 3.0 * n**3


def _solve_flops(a, b):
    """Computed real flops of the two triangular solves: 2 n^2 per right-hand side."""
    n = numpy.shape(a)[0]
    nrhs = numpy.shape(b)[1] if numpy.ndim(b) == 2 else 1
    cplx = numpy.iscomplexobj(a) or numpy.iscomplexobj(b)
    return (8.0 if cplx else 2.0) * n**2 * nrhs


class _Namespace(types.ModuleType):
    """Copy of a module's namespace with some names replaced."""

    def __init__(self, base, overrides):
        super().__init__(base.__name__)
        self.__dict__.update(vars(base))
        self.__dict__.update(overrides)
        self._base = base

    def __getattr__(self, name):  # lazily loaded submodules of the base
        return getattr(self._base, name)


class Tracer:
    """Spans in memory, plus the counters the spans cannot give."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counts = dict.fromkeys(COUNTERS, 0.0)
        self._stack = []
        self._undo = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
                if after is not None:
                    after(*args, **kwargs)
        return traced

    def _count(self, key, amount):
        self.counts[key] += amount

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_function(self, fn, name, after=None):
        """Wrap fn under every name that binds it in a couettelab module."""
        wrapped = self._wrap(name, fn, after)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def _replace_method(self, cls, attr, name):
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        self._set(owner, attr, self._wrap(name, vars(owner)[attr]))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        count = self._count
        self._replace_function(grid.build_grid, "grid.build")
        self._replace_function(grid.build_diff_ops, "grid.build")
        self._replace_function(
            resolvent.airy_scaled, "airy",
            after=lambda z, *a, **k: count("airy.points", numpy.size(z)))
        self._replace_function(resolvent.homogeneous_airy, "resolvent.homog_airy")
        self._replace_function(resolvent.homogeneous_bvp, "resolvent.homog_bvp")
        self._replace_function(resolvent.recover_velocity,
                               "resolvent.recover_velocity")
        self._replace_function(norms.norms, "norms")
        self._replace_function(harness.spectrum, "harness.spectrum")
        self._replace_method(resolvent.EllipticSolver, "solve", "resolvent.elliptic")
        self._replace_method(harness._WorstCaseSweeper, "response_at",
                             "harness.response")
        self._replace_method(evolution.CrankNicolson, "__init__", "evolution.cn_setup")
        self._replace_method(evolution.CrankNicolson, "step", "evolution.cn_step")
        self._replace_method(evolution._Accumulator, "take", "evolution.ledger")
        self._replace_method(nonlinear.SpectralLab, "advance", "nonlinear.advance")
        self._replace_method(nonlinear.SpectralLab, "nonlinear_rhs", "nonlinear.rhs")
        self._replace_method(nonlinear.SpectralLab, "velocities",
                             "nonlinear.velocities")
        self._replace_method(nonlinear.EnergyAccumulator, "take", "nonlinear.energy")
        self._set(harness, "_power_sigma_max",
                  self._count_power_cap(harness._power_sigma_max))
        self._install_linalg()
        return self

    def _count_power_cap(self, power):
        """Count power iterations that stop at their iteration cap."""
        default_iters = inspect.signature(power).parameters["iters"].default
        count = self._count

        @functools.wraps(power)
        def counted(apply_t, apply_th, dim, x0=None, iters=default_iters, **kw):
            calls = [0]

            def t(x):
                calls[0] += 1
                return apply_t(x)
            out = power(t, apply_th, dim, x0=x0, iters=iters, **kw)
            if calls[0] >= iters:
                count("harness.power_cap_hits", 1)
            return out
        return counted

    def _install_linalg(self):
        count = self._count
        w = self._wrap
        sla_overrides = {
            "lu_factor": w("linalg.lu_factor", scipy.linalg.lu_factor,
                           lambda a, *x, **k: count("linalg.gflop_computed",
                                                    _factor_flops(a) * 1e-9)),
            "lu_solve": w("linalg.lu_solve", scipy.linalg.lu_solve,
                          lambda f, b, *x, **k: count("linalg.gflop_computed",
                                                      _solve_flops(f[0], b) * 1e-9)),
            "svdvals": w("linalg.eig_svd", scipy.linalg.svdvals),
            "null_space": w("linalg.eig_svd", scipy.linalg.null_space),
        }
        np_linalg = _Namespace(numpy.linalg, {
            "solve": w("linalg.dense_solve", numpy.linalg.solve,
                       lambda a, b: count("linalg.gflop_computed",
                                          (_factor_flops(a) + _solve_flops(a, b))
                                          * 1e-9)),
            "eigvals": w("linalg.eig_svd", numpy.linalg.eigvals),
        })
        np_shadow = _Namespace(numpy, {"linalg": np_linalg})
        sla_shadow = _Namespace(scipy.linalg, sla_overrides)
        for mod in _package_modules():
            if getattr(mod, "np", None) is numpy:
                self._set(mod, "np", np_shadow)
            if getattr(mod, "sla", None) is scipy.linalg:
                self._set(mod, "sla", sla_shadow)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- read-out ------------------------------------------------------------

    def mark(self):
        """Position to pass to per_layer() for the spans recorded after now."""
        return len(self.spans), dict(self.counts)

    def per_layer(self, since=(0, None)):
        """Per-layer metrics of the spans recorded since `since` (a mark())."""
        start, counts0 = since
        spans = self.spans[start:]
        dur = [t1 - t0 for _, t0, t1, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= start:
                child[parent - start] += dur[i]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, _, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        out = {m: (calls[s] if kind == "calls" else self_s[s])
               for m, (s, kind) in SPAN_METRICS.items()}
        base = counts0 or dict.fromkeys(COUNTERS, 0.0)
        for key in COUNTERS:
            out[key] = self.counts[key] - base[key]
        out["trace.spans"] = len(spans)
        out["harness.solves_per_lambda"] = (
            self._solves_under("harness.response", spans, start)
            / out["harness.lambda_points"] if out["harness.lambda_points"] else 0.0)
        return out

    @staticmethod
    def _solves_under(ancestor, spans, start):
        """Number of lu_solve spans that have an `ancestor` span above them."""
        n = 0
        for name, _, _, parent in spans:
            if name != "linalg.lu_solve":
                continue
            while parent >= start:
                pname, _, _, parent_up = spans[parent - start]
                if pname == ancestor:
                    n += 1
                    break
                parent = parent_up
        return n

    def dump(self, path, meta):
        names = {n: i for i, n in enumerate(SPAN_NAMES)}
        t_ref = self.spans[0][1] if self.spans else 0.0
        doc = dict(meta, span_names=list(SPAN_NAMES),
                   span_fields=["name", "start_s", "end_s", "parent"],
                   spans=[[names[n], round(t0 - t_ref, 7), round(t1 - t_ref, 7), p]
                          for n, t0, t1, p in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "couettelab" or name.startswith("couettelab."))]
