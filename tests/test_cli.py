import argparse
import dataclasses
import json
import math

import pytest

from qpwave import (
    Band,
    TrigPoly,
    get_default_budget,
    integer_lattice,
    picard_blowup_scan,
    sqrt2_lattice,
)
from qpwave.cli import _emit, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_predict_exponent(capsys):
    code, out, _ = run(capsys, "predict-exponent", "--p", "4", "--d", "1", "--b", "1")
    assert code == 0
    assert out.strip() == "0.25"
    code, out, _ = run(
        capsys, "predict-exponent", "--p", "6", "--d", "1", "--b", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["s_star"] == pytest.approx(1 / 3)
    assert payload["alpha"] == 0.0


def test_norm_on_one_plus_mode(capsys, tmp_path):
    f = TrigPoly(integer_lattice(), {(0,): 1.0, (1,): 1.0})
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_dict()))
    code, out, _ = run(capsys, "norm", "--p", "4", "--input", str(path))
    assert code == 0
    assert float(out) == pytest.approx(6 ** 0.25, rel=1e-12)


def test_count(capsys):
    code, out, _ = run(
        capsys, "count", "--omega", "sqrt2", "--C", "8", "--interval", "0", "1"
    )
    assert code == 0
    assert out.strip() == "4"


def test_gaps(capsys):
    code, out, _ = run(capsys, "gaps", "--omega", "sqrt2", "--H", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == pytest.approx(abs(17 - 12 * math.sqrt(2)), rel=1e-12)


def test_malformed_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "norm", "--p", "4", "--input", str(path))
    assert code == 2
    assert "line 1" in err


def test_budget_exits_3(capsys, monkeypatch, work_budget):
    # main() sets the process-wide budget from QPWAVE_BUDGET; work_budget restores it
    monkeypatch.setenv("QPWAVE_BUDGET", "10")
    code, _, err = run(
        capsys, "count", "--omega", "sqrt2", "--C", "64", "--interval", "0", "1"
    )
    assert code == 3
    assert "budget" in err.lower()


def test_budget_env_holds_for_one_command(capsys, monkeypatch):
    # no work_budget fixture: main() itself must put the prior budget back
    monkeypatch.setenv("QPWAVE_BUDGET", "10")
    before = get_default_budget()
    code, _, _ = run(capsys, "count", "--omega", "sqrt2", "--C", "64", "--interval", "0", "1")
    assert code == 3
    assert get_default_budget() == before


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_bad_budget_env_exits_2(capsys, monkeypatch, work_budget, value):
    monkeypatch.setenv("QPWAVE_BUDGET", value)
    before = get_default_budget()
    code, out, err = run(capsys, "predict-exponent", "--p", "4", "--d", "1", "--b", "1")
    assert code == 2
    assert out == ""
    assert f"bad QPWAVE_BUDGET={value!r}" in err
    assert get_default_budget() == before


def test_scan_band_failure_exits_4(capsys, tmp_path):
    # force an absurd band so the otherwise-passing scan fails its assertion
    code, _, err = run(
        capsys,
        "picard-scan",
        "--omega",
        "sqrt2",
        "--C",
        "8,16,32",
        "--t",
        "0.01",
        "--band",
        "10.0",
        "11.0",
        "--output",
        str(tmp_path / "p"),
    )
    assert code == 4
    assert "outside declared band" in err
    bands = json.loads((tmp_path / "p.json").read_text())["bands"]
    assert [(b["label"], b["lo"], b["hi"], b["ok"]) for b in bands] == [
        ("picard slope", 10.0, 11.0, False)
    ]


def test_band_override_applies_at_any_power(capsys):
    # higher powers declare no band of their own; --band still binds
    code, _, err = run(
        capsys, "picard-scan", "--C", "2,4,8", "--power", "3", "--band", "100", "101"
    )
    assert code == 4
    assert "FAIL picard slope" in err


@pytest.mark.parametrize("band", [("3", "2"), ("nan", "2"), ("1", "inf"), ("-1", "nan")])
def test_band_must_be_a_finite_ordered_pair(capsys, band):
    code, out, err = run(capsys, "picard-scan", "--C", "8,16,32", "--band", *band)
    assert code == 2
    assert "--band needs finite LO <= HI" in err
    assert out == ""  # refused before any scan


def test_every_failed_band_is_reported(capsys):
    report = picard_blowup_scan(sqrt2_lattice(), [2, 4, 8])
    bands = (
        Band("first", 1.0, 2.0, 3.0),
        Band("second", 1.0, 0.0, 2.0),
        Band("third", 4.0, 0.0, 2.0),
    )
    code = _emit(dataclasses.replace(report, bands=bands), argparse.Namespace(output=None))
    err = capsys.readouterr().err
    assert code == 4
    assert "FAIL first" in err and "FAIL third" in err and "second" not in err


def test_picard_scan_outputs_and_reproducibility(capsys, tmp_path):
    args = [
        "picard-scan", "--omega", "sqrt2", "--C", "8,16,32",
        "--t", "0.01", "--output", str(tmp_path / "a"),
    ]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    a_csv = (tmp_path / "a.csv").read_bytes()
    a_json = json.loads((tmp_path / "a.json").read_text())
    assert a_json["fit"]["slope"] == pytest.approx(json.loads(out1)["slope"])
    args2 = [
        "picard-scan", "--omega", "sqrt2", "--C", "8,16,32",
        "--t", "0.01", "--output", str(tmp_path / "b"),
    ]
    code, out2, _ = run(capsys, *args2)
    assert code == 0
    assert (tmp_path / "b.csv").read_bytes() == a_csv  # byte-identical outputs
    assert out1 == out2


def test_extremizer_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "ext.json"
    code, out, _ = run(
        capsys, "extremizer", "--omega", "sqrt2", "--C", "8", "--output", str(out_path)
    )
    assert code == 0
    assert json.loads(out)["modes"] == 8
    f = TrigPoly.from_dict(json.loads(out_path.read_text()))
    assert len(f) == 8
    assert f.spec == sqrt2_lattice()


def test_nls_run_and_trace(capsys, tmp_path):
    f = TrigPoly(sqrt2_lattice(), {(1, 0): 0.5, (0, 1): 0.5j, (1, 1): 0.25})
    path = tmp_path / "u0.json"
    path.write_text(json.dumps(f.to_dict()))
    trace = tmp_path / "trace.csv"
    final = tmp_path / "final.json"
    code, out, _ = run(
        capsys, "nls-run", "--input", str(path), "--T", "0.01", "--dt", "1e-3",
        "--trunc-height", "8", "--trace", str(trace), "--output", str(final),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["t"] == pytest.approx(0.01)
    assert payload["mass"] == pytest.approx(f.l2_norm() ** 2, rel=1e-10)
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# config=")
    assert lines[1] == "t,mass,hs_norm,trunc_loss,picard_iters,contraction"
    assert len(lines) == 12
    g = TrigPoly.from_dict(json.loads(final.read_text()))
    assert g.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-10)
    # the same command writes the same trace bytes
    again = tmp_path / "again.csv"
    code, _, _ = run(
        capsys, "nls-run", "--input", str(path), "--T", "0.01", "--dt", "1e-3",
        "--trunc-height", "8", "--trace", str(again),
    )
    assert code == 0
    assert again.read_bytes() == trace.read_bytes()


def test_kdv_run_refuses_sign_and_power(capsys, tmp_path):
    f = TrigPoly(sqrt2_lattice(), {(1, 0): 0.25, (-1, 0): 0.25})
    u0 = tmp_path / "u0.json"
    u0.write_text(json.dumps(f.to_dict()))
    # no flags for them ...
    for flag in ("--sign", "--power"):
        code, _, err = run(capsys, "kdv-run", "--input", str(u0), flag, "3")
        assert code == 2
        assert "unrecognized arguments" in err
    # ... and a config file that sets them is refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dt": 1e-3, "T": 0.01, "trunc_height": 6, "sign": -1}))
    code, _, err = run(capsys, "kdv-run", "--input", str(u0), "--config", str(cfg))
    assert code == 2
    assert "fixed nonlinearity" in err


def test_kdv_run_requires_real_data(capsys, tmp_path):
    f = TrigPoly(sqrt2_lattice(), {(1, 0): 1.0})  # not Hermitian
    path = tmp_path / "u0.json"
    path.write_text(json.dumps(f.to_dict()))
    code, _, err = run(capsys, "kdv-run", "--input", str(path), "--T", "0.01")
    assert code == 2
    assert "real" in err


def test_kdv_run_ok(capsys, tmp_path):
    f = TrigPoly(sqrt2_lattice(), {(1, 0): 0.25, (-1, 0): 0.25, (1, 1): 0.1j, (-1, -1): -0.1j})
    path = tmp_path / "u0.json"
    path.write_text(json.dumps(f.to_dict()))
    code, out, _ = run(
        capsys, "kdv-run", "--input", str(path), "--T", "0.01", "--dt", "1e-3",
        "--trunc-height", "6",
    )
    assert code == 0
    assert json.loads(out)["mass"] == pytest.approx(f.l2_norm() ** 2, rel=1e-10)


def test_unknown_solver_config_keys_rejected(capsys, tmp_path):
    f = TrigPoly(sqrt2_lattice(), {(1, 0): 0.5})
    u0 = tmp_path / "u0.json"
    u0.write_text(json.dumps(f.to_dict()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dt": 1e-3, "T": 0.01, "trunc_height": 8, "zeta": 1}))
    code, _, err = run(capsys, "nls-run", "--input", str(u0), "--config", str(cfg))
    assert code == 2
    assert "zeta" in err


def test_biortho_cli(capsys):
    code, out, _ = run(capsys, "biortho-check", "--delta", "1e-3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_strichartz_scan_cli(capsys, tmp_path):
    code, out, err = run(
        capsys, "strichartz-scan", "--omega", "sqrt2", "--C", "8,16,32",
        "--T", "0.1", "--trials", "1", "--seed", "0",
        "--output", str(tmp_path / "s"),
    )
    assert code == 0, err
    assert (tmp_path / "s.csv").exists() and (tmp_path / "s.json").exists()
    assert 0.10 <= json.loads(out)["slope"] <= 0.40


def test_averaged_check_cli(capsys):
    code, out, err = run(
        capsys, "averaged-check", "--omega", "sqrt2", "--C", "8,16,32", "--trials", "1"
    )
    assert code == 0, err
    assert abs(json.loads(out)["slope"]) <= 0.1


def test_averaged_check_cli_passes_the_symbol(capsys, tmp_path):
    # --symbol reaches averaged_norm_check: the Airy law is recorded and its
    # flat band holds
    code, out, err = run(
        capsys, "averaged-check", "--symbol", "airy", "--C", "8,16,32", "--trials", "1",
        "--output", str(tmp_path / "av"),
    )
    assert code == 0, err
    payload = json.loads((tmp_path / "av.json").read_text())
    assert payload["config"]["symbol"] == "airy"
    assert payload["bands"] and all(b["ok"] for b in payload["bands"])
    assert abs(json.loads(out)["slope"]) <= 0.1


def test_bilinear_scan_cli(capsys):
    code, out, err = run(
        capsys, "bilinear-scan", "--omega", "sqrt2", "--C1", "4,8,16",
        "--C2", "32", "--trials", "1",
    )
    assert code == 0, err
    assert json.loads(out)["slope"] <= 0.65


def test_mixed_norm_cli(capsys, tmp_path):
    f = TrigPoly(sqrt2_lattice(), {(2, 1): 1.0})
    path = tmp_path / "f.json"
    path.write_text(json.dumps(f.to_dict()))
    code, out, _ = run(
        capsys, "mixed-norm", "--input", str(path), "--T", "0.5", "--p", "4"
    )
    assert code == 0
    assert float(out) == pytest.approx(0.5 ** 0.25, rel=1e-12)
    code, out, _ = run(
        capsys, "mixed-norm", "--input", str(path), "--global-mean", "--p", "4"
    )
    assert code == 0
    assert float(out) == pytest.approx(1.0, rel=1e-12)


def test_bad_flags_exit_2(capsys):
    assert main(["count", "--C", "notanumber", "--interval", "0", "1"]) == 2
    assert main(["norm"]) == 2


def test_kdv_run_accepts_half_spectrum_format(capsys, tmp_path):
    import numpy as np

    from qpwave import real_field_to_dict

    rng = np.random.default_rng(90)
    coeffs = {}
    for _ in range(4):
        n = tuple(int(x) for x in rng.integers(-2, 3, size=2))
        if n == (0, 0) or n in coeffs or tuple(-x for x in n) in coeffs:
            continue
        c = complex(rng.standard_normal(), rng.standard_normal()) * 0.2
        coeffs[n] = c
        coeffs[tuple(-x for x in n)] = c.conjugate()
    u0 = TrigPoly(sqrt2_lattice(), coeffs)
    path = tmp_path / "u0.json"
    path.write_text(json.dumps(real_field_to_dict(u0)))
    code, out, err = run(
        capsys, "kdv-run", "--input", str(path), "--T", "0.01", "--dt", "1e-3",
        "--trunc-height", "6",
    )
    assert code == 0, err
    assert json.loads(out)["mass"] == pytest.approx(u0.l2_norm() ** 2, rel=1e-10)
