import json
import os
import re

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
    with pytest.raises(ConfigError, match="2 decades"):
        parse_config("[sweep]\nnu =\n", "sweep")
    # every sweep check fits, so there is no key to skip the rule
    with pytest.raises(ConfigError, match="line 3: unknown key 'fit'"):
        parse_config("[sweep]\nnu = 1e-3, 1e-4, 1e-5\nfit = 0\n", "sweep")


def test_type_mismatch():
    with pytest.raises(ConfigError, match="line 2.*number"):
        parse_config("[case]\nnu = abc\n", "resolvent")
    with pytest.raises(ConfigError, match="integer"):
        parse_config("[case]\nk = 1.5\n", "resolvent")
    # one wavenumber per sweep and per report; a list is not cut to its head
    for command in ("sweep", "report"):
        with pytest.raises(ConfigError, match="line 2: k: expected a number"):
            parse_config(f"[{command}]\nk = 1, 2\n", command)


def test_closed_choices_take_every_library_name():
    # the config's closed choices are the names the library defines
    from couettelab.harness import FORCINGS, SWEEP_CHECKS
    from couettelab.resolvent import BCS
    for bc in BCS:
        for command in ("resolvent", "spectrum", "evolve"):
            assert parse_config(f"[case]\nbc = {bc}\n", command)["case"]["bc"] == bc
    for forcing in FORCINGS:
        parse_config(f"[case]\nforcing = {forcing}\n", "resolvent")
    for check in SWEEP_CHECKS:
        parse_config(f"[sweep]\ncheck = {check}\n", "sweep")
    assert parse_config("[report]\nblocks = resolvent\n", "report")["report"]["blocks"] \
        == ("resolvent",)


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
    assert doc["records"][0]["params"]["path"] == "auto"


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


@pytest.mark.parametrize("nus, message", [
    ("2, 1e-2", r"nu k\^2 <= 1, got nu = 2, k = 1"),
    ("1e-6, 1e-8", r"order 3714 for nu=1e-08, k=1 exceeds the cap"),
])
def test_cli_sweep_rejects_out_of_range_nu(tmp_path, monkeypatch, capsys, nus,
                                           message):
    # a nu out of range is a config error (exit 2), found before any row runs
    from couettelab import harness

    def no_rows(*args, **kwargs):
        raise AssertionError("a sweep row ran")

    monkeypatch.setattr(harness, "_sweep_row", no_rows)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"[sweep]\nnu = {nus}\n")
    with pytest.raises(ConfigError, match=message):
        parse_config(cfg.read_text(), "sweep")
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command,text", [
    ("resolvent", "[case]\nnu = 1e-8\n"),
    ("report", "[report]\nnu = 1e-2, 1e-8\n"),
], ids=["resolvent", "report"])
def test_cli_case_commands_reject_out_of_range_nu(tmp_path, monkeypatch, capsys,
                                                  command, text):
    # the order cap is a config error (exit 2), found before any case is solved
    from couettelab import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("a case was solved")

    monkeypatch.setattr(cli, "solve", no_solve)
    message = "order 3714 for nu=1e-08, k=1 exceeds the cap 1024"
    with pytest.raises(ConfigError, match=message):
        parse_config(text, command)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err
    with pytest.raises(ConfigError, match=r"requires nu k\^2 <= 1, got nu = 0.5, k = 2"):
        parse_config(text.replace("1e-8", "0.5") + "k = 2\n", command)
    with pytest.raises(ConfigError, match=r"n = 2000 must lie in \[4, 1024\]"):
        parse_config("[case]\nn = 2000\n", "resolvent")


CAP = " exceeds the cap 1024"


@pytest.mark.parametrize("command,text,message,too_large", [
    ("homog", "[case]\nnu = 1e-8\n", "order 3714 for nu=1e-08, k=1" + CAP,
     "[case]\nnu = 0.5\nk = 2\n"),
    ("spectrum", "[case]\nnu = 1e-8\n", "order 3714 for nu=1e-08, k=1" + CAP,
     "[case]\nnu = 0.5\nk = 2\n"),
    ("evolve", "[case]\nnu = 1e-8\n", "order 3714 for nu=1e-08, k=1" + CAP,
     "[case]\nnu = 0.5\nk = 2\n"),
    # every nu of the probe, at k = k_max
    ("threshold", "[threshold]\nnu = 1e-3, 1e-8\n", "order 7427 for nu=1e-08, k=8" + CAP,
     "[threshold]\nnu = 1e-3, 0.5\nk_max = 2\n"),
    # a value outside a closed choice, or a case outside the method's range
    ("report", "[report]\nblocks = airy,resolvnt\n",
     "line 2: blocks: expected one of airy, resolvent, got 'resolvnt'", None),
    ("report", "[report]\nblocks =\n",
     "line 2: blocks: expected a list of airy, resolvent, got ''", None),
    ("evolve", "[case]\nbc = slip\n",
     "line 2: bc: expected one of navier_slip, non_slip, got 'slip'", None),
    ("homog", "[case]\nmethod = Airy\n",
     "line 2: method: expected one of airy, bvp, got 'Airy'", None),
    ("resolvent", "[case]\nnu = 1e-3\nbc = nonslip\n",
     "line 3: bc: expected one of navier_slip, non_slip, got 'nonslip'", None),
    ("spectrum", "[case]\nbc = Navier_slip\n",
     "line 2: bc: expected one of navier_slip, non_slip, got 'Navier_slip'", None),
    ("resolvent", "[case]\npath = decomposed_airy\n",
     "line 2: path: expected one of auto, monolithic, decomposed, decomposed_bvp, "
     "got 'decomposed_airy'", None),
    ("resolvent", "[case]\nforcing = exp_ipy\n",
     "line 2: forcing: expected one of one, exp_ipiy, exp_iy, cos_half, "
     "got 'exp_ipy'", None),
    ("resolvent", "[case]\nnu = 1e-3\npath = decomposed\n",
     "line 3: path = decomposed requires bc = non_slip; the navier_slip solve "
     "has one path", None),
    ("threshold", "[threshold]\nnu = 1e-3\nk_max = 4\n",
     "line 3: threshold probes require k_max >= 8, got 4", None),
    # nu = 1e-2, k = 1: L = 4.64 < 6, named by the line of nu
    ("homog", "[case]\nnu = 1e-2\n",
     "line 2: method = airy requires L >= 6|k| or L >= |k| >= 10, got L = 4.64 "
     "at nu = 0.01, k = 1", None),
], ids=["homog", "spectrum", "evolve", "threshold", "report-blocks",
        "report-no_blocks", "evolve-bc",
        "homog-method", "resolvent-bc", "spectrum-bc", "resolvent-path",
        "resolvent-forcing", "resolvent-path_navier", "threshold-k_max",
        "homog-airy_range"])
def test_cli_grid_commands_reject_out_of_range_nu(tmp_path, monkeypatch, capsys,
                                                 command, text, message, too_large):
    # the order cap, and any other bad value, is a config error (exit 2)
    # that names it, found before any grid is built
    from couettelab import cli

    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(cli, "grid_for", no_grid)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(text, command)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err
    if too_large is None:
        return
    with pytest.raises(ConfigError, match=r"requires nu k\^2 <= 1, got nu = 0.5, k = 2"):
        parse_config(too_large, command)
    if command != "threshold":
        with pytest.raises(ConfigError, match=r"n = 2000 must lie in \[4, 1024\]"):
            parse_config("[case]\nn = 2000\n", command)


def test_cli_evolve_at_order_373(tmp_path):
    # nu = 9.9e-6 gives order 373, where d1 and d2 round reflection-
    # asymmetrically above 1e-12 (test_frame_forms_build_at_order_373)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[case]\nnu = 9.9e-6\n")
    rc = main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.load(open(tmp_path / "o" / "report.json"))
    assert doc["verdicts"]["decayed"]


def test_cli_sweep_records_every_data_kind(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("[sweep]\ncheck = nonslip\nnu = 1e-1, 1e-2, 1e-3\n")
    out = tmp_path / "o"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out),
               "--format", "json", "--format", "svg"])
    assert rc in (0, 1)
    doc = json.load(open(out / "report.json"))
    records = doc["records"]
    assert len(records) == 6
    assert sorted(r["params"]["data"] for r in records) == ["l2"] * 3 + ["pair"] * 3
    # fit -> (data kind, norm column) it is fitted on
    fitted_on = {
        "nonslip_l2_w_l2": ("l2", "l2"), "nonslip_l2_w_l1": ("l2", "l1"),
        "nonslip_hm1_w_l2": ("pair", "l2"), "nonslip_hm1_rho_w": ("pair", "rho_half"),
        "nonslip_hm1_u_l2": ("pair", "u_l2"),
    }
    fits = [f for f in doc["fits"] if "exponent" in f]
    assert [f["name"] for f in fits] == list(fitted_on)
    assert all("margin" in f for f in fits)

    def circles(path):
        return [line for line in open(path).read().splitlines()
                if line.startswith("<circle")]

    for name, (data, col) in fitted_on.items():
        rows = [r for r in records if r["params"]["data"] == data]
        expect = svg_loglog(str(tmp_path / "expect.svg"),
                            xs=[r["params"]["nu"] for r in rows],
                            ys=[r["results"][col] for r in rows])
        assert len(circles(expect)) == 3
        assert circles(out / f"{name}.svg") == circles(expect), name


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
    # both ends are stable: the nu is reported unbracketed, with no bracket
    assert not any(f["name"] in ("bracket", "fitted_beta") for f in doc["fits"])
    assert {"name": "unbracketed", "nu": 1e-3, "verdict_lo": "stable",
            "verdict_hi": "stable"} in doc["fits"]
