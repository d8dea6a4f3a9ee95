import json
import os

import pytest

from couettelab.cli import main
from couettelab.config import ConfigError, parse_config
from couettelab.reports import (CaseRecord, ReportDocument, emit_csv,
                                emit_json, provenance, svg_loglog)


# -- configuration -------------------------------------------------------------

def test_empty_config_defaults():
    cfg = parse_config("", "airy")
    assert cfg["airy"]["delta"] == 0.0
    assert cfg["airy"]["x_min"] == -12.0


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("# c\n[case]\nwhoops = 3\n", "resolvent")


def test_unknown_section_and_malformed():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[nope]\n", "resolvent")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("[case]\nnu 3\n", "resolvent")


def test_nu_must_be_positive():
    with pytest.raises(ConfigError, match="nu must be positive"):
        parse_config("[case]\nnu = -1\n", "resolvent")


def test_fit_requires_two_decades():
    with pytest.raises(ConfigError, match="2 decades"):
        parse_config("[sweep]\nnu = 1e-3\n", "sweep")
    cfg = parse_config("[sweep]\nnu = 1e-3, 1e-4, 1e-5\nfit = 0\n", "sweep")
    assert cfg["sweep"]["fit"] == 0


def test_type_mismatch():
    with pytest.raises(ConfigError, match="line 2.*number"):
        parse_config("[case]\nnu = abc\n", "resolvent")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("[case]\nk = 1.5\n", "resolvent")


# -- reports -------------------------------------------------------------------

def test_empty_report_csv(tmp_path):
    rep = ReportDocument(provenance=provenance(""))
    path = emit_csv(rep, str(tmp_path / "r.csv"))
    assert open(path).read() == "id\n"


def test_provenance_records_blas_threads(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    prov = provenance("cfg")
    assert prov["OPENBLAS_NUM_THREADS"] == "1"
    assert prov["OMP_NUM_THREADS"] == "2"
    assert prov["MKL_NUM_THREADS"] == "unset"
    assert prov["cpu_count"] == os.cpu_count()


def test_duplicate_and_nonfinite_rejected():
    rep = ReportDocument()
    rep.add_record(CaseRecord(id="a", params={}, results={"x": 1.0}))
    with pytest.raises(ValueError, match="duplicate"):
        rep.add_record(CaseRecord(id="a", params={}, results={}))
    with pytest.raises(ValueError, match="non-finite"):
        rep.add_record(CaseRecord(id="b", params={}, results={"x": float("nan")}))


def test_json_round_trip(tmp_path):
    rep = ReportDocument(provenance=provenance("cfg"))
    rep.add_record(CaseRecord(id="c0", params={"nu": 1e-3, "k": 1},
                              results={"l2": 0.1234567890123456789}))
    rep.fits.append({"name": "f", "exponent": -1 / 3})
    rep.verdicts["ok"] = True
    with open(emit_json(rep, str(tmp_path / "a.json"))) as fh:
        doc = json.load(fh)
    assert doc["records"][0]["results"]["l2"] == rep.records[0].results["l2"]


def test_csv_deterministic_columns(tmp_path):
    rep = ReportDocument()
    rep.add_record(CaseRecord(id="c0", params={"b": 1.0, "a": 2.0},
                              results={"z": 3.0, "y": 0.1}))
    path = emit_csv(rep, str(tmp_path / "r.csv"))
    header, row = open(path).read().strip().split("\n")
    assert header == "id,a,b,y,z"
    assert row == "c0,2.0,1.0,0.1,3.0"


def test_svg_reference_lines(tmp_path):
    path = svg_loglog(str(tmp_path / "p.svg"), xs=[1e-3, 1e-4, 1e-5],
                      ys=[1.0, 2.0, 4.3],
                      fit={"exponent": -0.33, "intercept": 0.0},
                      targets=(-1 / 3,), title="t")
    text = open(path).read()
    assert text.count('class="reference"') == 1
    assert "<svg" in text and "</svg>" in text


# -- CLI -----------------------------------------------------------------------

def test_cli_airy_and_exit_code(tmp_path):
    rc = main(["airy", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "records.csv").exists()
    assert (tmp_path / "o" / "report.json").exists()


def test_cli_resolvent_nonslip(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[case]\nnu = 1e-3\nk = 2\nlambda = 0.4\nbc = non_slip\n")
    rc = main(["resolvent", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.load(open(tmp_path / "o" / "report.json"))
    assert doc["verdicts"]["moments_zero"]
    assert doc["schema_version"] == 1


def test_cli_homog(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[case]\nnu = 1e-3\nk = 1\nlambda = 0.2\n")
    rc = main(["homog", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0


def test_cli_spectrum(tmp_path):
    rc = main(["spectrum", "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.load(open(tmp_path / "o" / "report.json"))
    assert doc["verdicts"]["gap_positive"]


def test_cli_evolve(tmp_path):
    rc = main(["evolve", "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.load(open(tmp_path / "o" / "report.json"))
    names = [f["name"] for f in doc["fits"]]
    assert "decay_rate" in names and "space_time_ratio" in names


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[case]\nnu = -3\n")
    rc = main(["resolvent", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_report_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["report", "--out", a, "--jobs", "2"]) == 0
    assert main(["report", "--out", b, "--jobs", "1"]) == 0
    assert open(os.path.join(a, "records.csv"), "rb").read() == \
        open(os.path.join(b, "records.csv"), "rb").read()
    assert open(os.path.join(a, "report.json"), "rb").read() == \
        open(os.path.join(b, "report.json"), "rb").read()


def test_cli_threshold_small(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("[threshold]\nnu = 1e-3\namplitude_lo = 0.005\n"
                   "amplitude_hi = 0.02\nt_end = 20\n")
    rc = main(["threshold", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.load(open(tmp_path / "o" / "report.json"))
    assert doc["verdicts"]["verdicts_monotone"]
    assert any(f["name"] == "bracket" for f in doc["fits"])
