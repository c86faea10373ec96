import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgosc
from sgosc.cli import _wf_protocol_from, main, run


def test_check_phase_config(tmp_path, capsys):
    code = run(
        {
            "command": "check-phase",
            "phase": "jb(x)*jb(k)",
            "order": [1, 1],
            "dims": [1, 1],
            "out": str(tmp_path / "rep.json"),
        }
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["admissible"] is True
    saved = json.loads((tmp_path / "rep.json").read_text())
    assert saved["report"]["admissible"] is True
    assert "protocol" in saved["report"]


def test_malformed_order_field_exits_2(capsys):
    code = run(
        {
            "command": "check-phase",
            "phase": "jb(x)*jb(k)",
            "order": "banana",
            "dims": [1, 1],
        }
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["pointer"] == "/order"


def test_check_phase_kg11_mass_zero_exits_2(capsys):
    code = run({"command": "check-phase", "phase": "kg11", "mass": 0.0})
    assert code == 2
    assert json.loads(capsys.readouterr().err)["pointer"] == "/mass"


def test_unknown_command_exits_2(capsys):
    assert run({"command": "frobnicate"}) == 2


def test_non_integrable_regularization_exits_3_with_diagnostic(capsys):
    # IntegrabilityError subclasses ValueError; it is a numerical failure
    code = run(
        {
            "command": "eval-oscint",
            "phase": "sep-power",
            "amplitude": "one",
            "testfn": "gauss",
            "r": 1,
            "box": [6, 6],
        }
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "diagnostic" in err
    assert "non-integrable" in err["error"]


def test_kg_unconverged_grid_exits_3_with_diagnostic(tmp_path, capsys):
    # at t = 400 the composite's xi grid aliases up to 3072 points
    out = tmp_path / "u.csv"
    assert main(["kg", "--t", "400", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["diagnostic"]["grid_points"] == 3072
    assert err["diagnostic"]["change"] >= err["diagnostic"]["tol"]
    assert not out.exists()


def test_eval_oscint_with_oracle(tmp_path, capsys):
    code = run(
        {
            "command": "eval-oscint",
            "phase": "jb(x)*jb(k)",
            "dims": [1, 1],
            "order": [1, 1],
            "amplitude": "gauss",
            "testfn": "gauss",
            "r": 1,
            "box": [8.0, 8.0],
            "tol": 1e-7,
            "oracle": True,
            "out": str(tmp_path / "res.json"),
        }
    )
    assert code == 0
    res = json.loads((tmp_path / "res.json").read_text())
    assert res["r_used"] == 1
    diff = abs(res["value_re"] - res["oracle"]["value_re"]) + abs(
        res["value_im"] - res["oracle"]["value_im"]
    )
    assert diff < 1e-5


def test_readme_eval_oscint_example_matches_oracle(tmp_path, capsys):
    """The README's eval-oscint example runs and agrees with its oracle."""
    code = run(
        {
            "command": "eval-oscint",
            "phase": "sep-power",
            "amplitude": "gauss",
            "testfn": "gauss",
            "r": 2,
            "box": [6, 6],
            "tol": 1e-8,
            "oracle": True,
            "out": str(tmp_path / "result.json"),
        }
    )
    assert code == 0
    res = json.loads((tmp_path / "result.json").read_text())
    diff = abs(complex(res["value_re"], res["value_im"]) - complex(
        res["oracle"]["value_re"], res["oracle"]["value_im"]
    ))
    assert diff < 1e-7


def test_kg_subcommand_writes_csv(tmp_path):
    out = tmp_path / "u.csv"
    code = main(["kg", "--t", "0.5", "--mass", "1", "--c", "1", "--grid=-4:4:17", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,re,im"
    assert len(rows) == 18


def test_catalog_listing(capsys):
    assert run({"command": "catalog"}) == 0
    out = capsys.readouterr().out
    assert "kg4" in out and "g-train" in out


def test_synth_wf_scan_and_determinism(tmp_path):
    cfg = {
        "command": "synth-wf",
        "spec": {"asymptotic": [{"omega": [1.0], "eta": [1.0]}]},
        "dim": 1,
        "protocol": {
            "box": 64.0,
            "ngrid": 2048,
            "rho_max_frac": 0.7,
            "classical_centers": [[0.0]],
            "finite_q": [[0.0]],
        },
        "out_csv": str(tmp_path / "wf.csv"),
        "out_json": str(tmp_path / "wf.json"),
    }
    assert run(cfg) == 0
    first_csv = (tmp_path / "wf.csv").read_bytes()
    first_json = (tmp_path / "wf.json").read_bytes()
    assert run(cfg) == 0
    assert (tmp_path / "wf.csv").read_bytes() == first_csv
    assert (tmp_path / "wf.json").read_bytes() == first_json
    summary = json.loads(first_json)
    assert summary["singular"] >= 1
    assert "protocol" in summary


def test_wf_scan_catalog_gtrain_and_determinism(tmp_path):
    cfg = {
        "command": "wf-scan",
        "distribution": {"catalog": "g-train", "omega": [1.0], "eta": [1.0]},
        "protocol": {"ngrid": 2048},
        "out_csv": str(tmp_path / "wf.csv"),
        "out_json": str(tmp_path / "wf.json"),
    }
    assert run(cfg) == 0
    first_csv = (tmp_path / "wf.csv").read_bytes()
    first_json = (tmp_path / "wf.json").read_bytes()
    assert run(cfg) == 0
    assert (tmp_path / "wf.csv").read_bytes() == first_csv
    assert (tmp_path / "wf.json").read_bytes() == first_json
    rows = first_csv.decode().strip().splitlines()
    assert rows[0] == "y_kind,y_coords,q_kind,q_coords,label,fitted_N"
    singular = [r.split(",")[:5] for r in rows[1:] if r.split(",")[4] == "singular"]
    assert singular == [["boundary", "1", "boundary", "1", "singular"]]
    assert json.loads(first_json)["singular"] == 1


def test_wf_scan_default_protocol_finds_gtrain_corner(tmp_path):
    """With no protocol overrides (1-D: box 64, ngrid 2048, n_dirs 2) the
    g-train's one singular cell is the corner (1, 1)."""
    cfg = {
        "command": "wf-scan",
        "distribution": {"catalog": "g-train", "omega": [1.0], "eta": [1.0]},
        "out_csv": str(tmp_path / "wf.csv"),
        "out_json": str(tmp_path / "wf.json"),
    }
    assert run(cfg) == 0
    rows = (tmp_path / "wf.csv").read_text().strip().splitlines()
    singular = [r.split(",")[:5] for r in rows[1:] if r.split(",")[4] == "singular"]
    assert singular == [["boundary", "1", "boundary", "1", "singular"]]
    protocol = json.loads((tmp_path / "wf.json").read_text())["protocol"]
    assert (protocol["box"], protocol["ngrid"], len(protocol["x_dirs"])) == (64.0, 2048, 2)


@pytest.mark.parametrize("dim", [1, 2])
def test_wf_protocol_default_lattices(dim):
    """The default classical centres and finite covariables are the
    {-2, ..., 2}^dim lattice in row-major order (2-D: box 16, ngrid 256)."""
    protocol = _wf_protocol_from({}, dim)
    pts = [-2.0, -1.0, 0.0, 1.0, 2.0]
    lattice = tuple((a,) for a in pts) if dim == 1 else tuple((a, b) for a in pts for b in pts)
    assert protocol.classical_centers == lattice and protocol.finite_q == lattice
    assert (protocol.dim, protocol.box, protocol.ngrid) == ((1, 64.0, 2048) if dim == 1 else (2, 16.0, 256))


@pytest.mark.parametrize(
    "bad",
    [
        {"tau_radial": 0},
        {"alpha_angular": 0},
        {"ngrid": 0},
        {"sigma_classical": [0.0]},
        {"rho_max_frac": -1.0},
        {"rho_max_frac": 2.0},
        {"rho_lo": 40.0},  # the probe top is 0.7 * nyquist = 35.2
        {"finite_q": [[100.0]]},
        {"finite_q": [["a"]]},
        {"classical_centers": [[0, 0]]},  # a 2-D centre for the 1-D g-train
    ],
)
def test_wf_scan_bad_protocol_exits_2(tmp_path, capsys, bad):
    cfg = {
        "command": "wf-scan",
        "distribution": {"catalog": "g-train", "omega": [1.0], "eta": [1.0]},
        "protocol": {"ngrid": 2048, **bad},
        "out_csv": str(tmp_path / "wf.csv"),
    }
    assert run(cfg) == 2
    assert next(iter(bad)) in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "wf.csv").exists()


@pytest.mark.parametrize(
    "cfg, key",
    [
        ({"command": "mphi", "phase": "kg11", "grid": {"n_dirs": 4}}, "c_0"),
        (
            {
                "command": "wf-scan",
                "distribution": {"catalog": "g-train", "omega": [1.0], "eta": [1.0]},
            },
            "ngird",
        ),
        (
            {
                "command": "wf-scan",
                "distribution": {"catalog": "g-train", "omega": [1.0], "eta": [1.0]},
            },
            "x_dirs",
        ),
    ],
)
def test_unknown_protocol_key_exits_2(tmp_path, capsys, cfg, key):
    cfg = {**cfg, "protocol": {key: 2048}, "out_csv": str(tmp_path / "out.csv")}
    assert run(cfg) == 2
    err = json.loads(capsys.readouterr().err)
    assert key in err["error"]
    assert err["pointer"] == f"/protocol/{key}"
    assert not (tmp_path / "out.csv").exists()


def test_wf_protocol_extras_accepted(tmp_path):
    cfg = {
        "command": "wf-scan",
        "distribution": {"catalog": "g-train", "omega": [1.0], "eta": [1.0]},
        "protocol": {"box": 64.0, "ngrid": 2048, "n_dirs": 2, "dim": 1},
        "out_csv": str(tmp_path / "wf.csv"),
    }
    assert run(cfg) == 0


def test_mphi_grid_csv(tmp_path):
    cfg = {
        "command": "mphi",
        "phase": "kg11",
        "grid": {"n_dirs": 4, "finite_x": [[0.0, 0.0]], "finite_xi": [[0.0]]},
        "out_csv": str(tmp_path / "m.csv"),
        "out_json": str(tmp_path / "m.json"),
    }
    assert run(cfg) == 0
    rows = (tmp_path / "m.csv").read_text().strip().splitlines()
    assert rows[0] == "x_kind,x_coords,xi_kind,xi_coords,label,min_ratio"
    assert len(rows) > 4
    summary = json.loads((tmp_path / "m.json").read_text())
    assert summary["members"] >= 1


def test_spphi_grid_csv_and_determinism(tmp_path):
    cfg = {
        "command": "spphi",
        "phase": "kg11",
        "grid": {"n_dirs": 8},
        "out_csv": str(tmp_path / "sp.csv"),
        "out_json": str(tmp_path / "sp.json"),
    }
    assert run(cfg) == 0
    first_csv = (tmp_path / "sp.csv").read_bytes()
    first_json = (tmp_path / "sp.json").read_bytes()
    assert run(cfg) == 0
    assert (tmp_path / "sp.csv").read_bytes() == first_csv
    assert (tmp_path / "sp.json").read_bytes() == first_json
    rows = first_csv.decode().strip().splitlines()
    assert rows[0] == "y_kind,y_coords,q_kind,q_coords,label,min_ratio"
    assert any(r.split(",")[4] == "member" for r in rows[1:])
    assert json.loads(first_json)["members"] >= 1


def test_fio_apply_cli(tmp_path):
    cfg = {
        "operator": {"type": "fourier"},
        "f": "gauss",
        "grid": [-4.0, 4.0, 9],
    }
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "u.csv"
    code = main(["fio-apply", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("x,re,im")


def test_console_entry_point_runs():
    # the child process imports the same sgosc as this test, installed or not
    src = str(Path(sgosc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sgosc.cli", "catalog"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "kg11" in proc.stdout
