"""Case records, report documents, and deterministic CSV/JSON/SVG emission.

Determinism contract: identical configuration and package version produce
byte-identical CSV and JSON (floats via shortest round-trip repr, fixed
column order, no timestamps).
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from . import __version__


@dataclass
class CaseRecord:
    id: str
    params: dict
    results: dict
    provenance: dict = field(default_factory=dict)


@dataclass
class ReportDocument:
    records: list = field(default_factory=list)
    fits: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    emitted: list = field(default_factory=list)

    def add_record(self, rec):
        if any(r.id == rec.id for r in self.records):
            raise ValueError(f"duplicate record id {rec.id!r}")
        for v in list(rec.params.values()) + list(rec.results.values()):
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite value in record {rec.id!r}")
        self.records.append(rec)

    def all_passed(self):
        return all(bool(v) for v in self.verdicts.values())


#: Environment variables that set the BLAS thread count; the last digits of
#: a report depend on it, because the kernels sum in a different order.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def provenance(config_text=""):
    """Tool version, config digest, and the BLAS thread setting and processor
    count the report's figures were computed under."""
    digest = hashlib.sha256(config_text.encode()).hexdigest()[:16]
    prov = {"tool_version": __version__, "config_sha256": digest,
            "cpu_count": os.cpu_count()}
    prov.update({var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS})
    return prov


def _json_scalar(obj):
    """Coerce numpy scalars that are not json-native."""
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _fmt(value):
    if isinstance(value, float):
        # plain-float repr: shortest round-trip, no numpy scalar wrapper
        return repr(float(value))
    return str(value)


def emit_csv(report, path):
    """One header row, deterministic column order (id, params, results)."""
    pkeys = sorted({k for r in report.records for k in r.params})
    rkeys = sorted({k for r in report.records for k in r.results})
    lines = [",".join(["id"] + pkeys + rkeys)]
    for r in report.records:
        row = [r.id]
        row += [_fmt(r.params.get(k, "")) for k in pkeys]
        row += [_fmt(r.results.get(k, "")) for k in rkeys]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    report.emitted.append(path)
    return path


def emit_json(report, path):
    doc = {
        "schema_version": 1,
        "provenance": report.provenance,
        "records": [
            {"id": r.id, "params": r.params, "results": r.results,
             "provenance": r.provenance}
            for r in report.records
        ],
        "fits": report.fits,
        "verdicts": report.verdicts,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, default=_json_scalar)
        fh.write("\n")
    report.emitted.append(path)
    return path


def emit(report, out_dir, formats=("csv", "json"), svg_specs=()):
    """Write the requested formats into out_dir; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if "csv" in formats:
        paths.append(emit_csv(report, os.path.join(out_dir, "records.csv")))
    if "json" in formats:
        paths.append(emit_json(report, os.path.join(out_dir, "report.json")))
    if "svg" in formats:
        for spec in svg_specs:
            paths.append(svg_loglog(os.path.join(out_dir, spec["name"] + ".svg"),
                                    **{k: v for k, v in spec.items() if k != "name"}))
            report.emitted.append(paths[-1])
    return paths


# -- minimal deterministic SVG plots ------------------------------------------

_W, _H, _PAD = 640, 480, 60


def _map(v, lo, hi, a, b):
    if hi == lo:
        return 0.5 * (a + b)
    return a + (v - lo) * (b - a) / (hi - lo)


def svg_loglog(path, xs, ys, fit=None, targets=(), title=""):
    """Log-log scatter with an optional fitted line and one dashed reference
    line per requested target slope."""
    lx = [math.log10(x) for x in xs]
    ly = [math.log10(y) for y in ys]
    x0, x1 = min(lx), max(lx)
    y0, y1 = min(ly), max(ly)
    ypad = 0.05 * (y1 - y0 + 1e-9)
    y0, y1 = y0 - ypad, y1 + ypad
    px = lambda v: _map(v, x0, x1, _PAD, _W - _PAD)
    py = lambda v: _map(v, y0, y1, _H - _PAD, _PAD)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W//2}" y="24" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{_PAD}" y1="{_H-_PAD}" x2="{_W-_PAD}" y2="{_H-_PAD}" stroke="black"/>',
        f'<line x1="{_PAD}" y1="{_PAD}" x2="{_PAD}" y2="{_H-_PAD}" stroke="black"/>',
    ]
    for vx, vy in zip(lx, ly):
        parts.append(f'<circle cx="{px(vx):.2f}" cy="{py(vy):.2f}" r="4" '
                     'fill="steelblue"/>')
    if fit is not None:
        ya = fit["exponent"] * x0 + fit["intercept"] / math.log(10.0)
        yb = fit["exponent"] * x1 + fit["intercept"] / math.log(10.0)
        parts.append(f'<line x1="{px(x0):.2f}" y1="{py(ya):.2f}" '
                     f'x2="{px(x1):.2f}" y2="{py(yb):.2f}" stroke="firebrick" '
                     'stroke-width="1.5"/>')
    for slope in targets:
        # anchored at the first data point
        ya = ly[0]
        yb = ly[0] + slope * (x1 - x0)
        parts.append(f'<line x1="{px(x0):.2f}" y1="{py(ya):.2f}" '
                     f'x2="{px(x1):.2f}" y2="{py(yb):.2f}" stroke="gray" '
                     f'stroke-dasharray="6,4" class="reference"/>')
        parts.append(f'<text x="{px(x1)-4:.2f}" y="{py(yb)-6:.2f}" '
                     f'text-anchor="end" font-size="11">slope {slope:.4g}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
