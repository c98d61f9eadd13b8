import json
import pathlib
import warnings

import numpy as np
import pytest

from fracou import fou, lse, montecarlo
from fracou.cli import main
from fracou.fou import read_path_csv

DATA = pathlib.Path(__file__).parent / "data"

SIM_ARGS = [
    "simulate",
    "--theta", "1.0",
    "--hurst", "0.7",
    "--n", "64",
    "--delta", "0.1",
    "--seed", "7",
    "--stream", "3",
]


def run_cli(args):
    return main(args)


def test_missing_required_flag_exits_2(capsys):
    assert run_cli(["simulate", "--theta", "1.0"]) == 2


def test_unknown_subcommand_exits_2(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_delta_gamma_mutually_exclusive(capsys):
    assert (
        run_cli(SIM_ARGS + ["--gamma", "0.6", "--out", "-"]) == 2
    )


def test_simulate_golden_csv(tmp_path, capsys):
    out = tmp_path / "path.csv"
    assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
    golden = (DATA / "golden_path.csv").read_bytes()
    assert out.read_bytes() == golden


def test_simulate_oversample_flag_removed_exits_2(capsys):
    assert run_cli(SIM_ARGS + ["--oversample", "8", "--out", "-"]) == 2


def test_simulate_to_stdout(capsys):
    assert run_cli(SIM_ARGS + ["--out", "-"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "i,t,x"
    assert len(lines) == 66


def test_simulate_warns_above_clt_range(capsys):
    args = list(SIM_ARGS)
    args[args.index("0.7")] = "0.8"
    assert run_cli(args + ["--out", "-"]) == 0
    assert "H >= 3/4" in capsys.readouterr().err


def test_simulate_invalid_theta_exits_2(capsys):
    args = list(SIM_ARGS)
    args[args.index("1.0")] = "-1.0"
    assert run_cli(args + ["--out", "-"]) == 2


@pytest.mark.parametrize("flag", ["--seed", "--stream"])
def test_simulate_negative_seed_exits_2(capsys, flag):
    args = list(SIM_ARGS)
    args[args.index(flag) + 1] = "-1"
    assert run_cli(args + ["--out", "-"]) == 2
    assert "[0, 2^63)" in capsys.readouterr().err


def test_estimate_roundtrip(tmp_path, capsys):
    out = tmp_path / "path.csv"
    assert run_cli(SIM_ARGS + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["estimate", "--in", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    x, delta = read_path_csv(str(out))
    expect = lse.estimate_series(x, delta)
    assert doc["theta_hat"] == pytest.approx(expect.theta_hat, rel=1e-12)
    assert doc["n"] == 64
    assert doc["delta"] == pytest.approx(0.1, rel=1e-12)
    assert set(doc) == {"theta_hat", "numerator", "denominator", "n", "delta"}


def test_estimate_prints_finite_json_beyond_float_range(tmp_path, capsys):
    # x 2^900 overflows the plain estimator sums; the printed sums are those
    # of the rescaled path, never the non-JSON Infinity
    lines = (DATA / "golden_path.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    huge = tmp_path / "huge.csv"
    huge.write_text(
        "\n".join([lines[0]] + [f"{i},{t},{float(x) * 2.0**900!r}" for i, t, x in rows]) + "\n"
    )
    assert run_cli(["estimate", "--in", str(huge)]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
    x, delta = read_path_csv(str(DATA / "golden_path.csv"))
    assert doc["theta_hat"] == lse.estimate_series(x, delta).theta_hat


def test_mc_with_huge_start_has_no_degenerate_replications(tmp_path, capsys):
    # x0 = 1e200 squares beyond float range in the estimator sums
    out_json = tmp_path / "report.json"
    cfg = _mc_config(tmp_path, x0=1e200, out_json=str(out_json))
    assert run_cli(["mc", str(cfg), "--threads", "1"]) == 0
    report = json.loads(out_json.read_text())
    assert [s["degenerate_count"] for s in report["schemes"]] == [0]


def test_simulate_extreme_delta_keeps_stationary_scale(capsys):
    # delta = 1e300: the increments are nearly independent with variance
    # H Gamma(2H) theta^(-2H) = 0.551; c(0) was once read as 1.6e47 here
    args = ["simulate", "--theta", "1", "--hurst", "0.6", "--n", "50", "--delta", "1e300"]
    assert run_cli(args + ["--seed", "3", "--out", "-"]) == 0
    x = [float(line.split(",")[2]) for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(x) == 51 and max(map(abs, x)) < 5.0


def _edit_golden_row(tmp_path, i, col, value):
    lines = (DATA / "golden_path.csv").read_text().splitlines()
    cells = lines[i + 1].split(",")
    cells[col] = value
    lines[i + 1] = ",".join(cells)
    path = tmp_path / "edited.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize(
    "i, col, value",
    [
        (5, 0, "6"),  # duplicated index
        (0, 0, "1"),  # index not starting at 0
        (40, 1, "4.05"),  # one time off the grid
        (64, 1, "6.4000001"),  # last time off by 1e-7
        (3, 2, "abc"),  # unparsable value
    ],
)
def test_estimate_rejects_inconsistent_csv_exits_2(tmp_path, capsys, i, col, value):
    path = _edit_golden_row(tmp_path, i, col, value)
    assert run_cli(["estimate", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_estimate_accepts_times_within_tolerance(tmp_path, capsys):
    # t_40 = 4.000000000000001 is 1e-15 off 40 * 0.1 and still on the grid
    path = _edit_golden_row(tmp_path, 40, 1, "4.000000000000001")
    assert run_cli(["estimate", "--in", str(path)]) == 0


@pytest.mark.parametrize(
    "body",
    [
        "",  # header only: no rows for loadtxt
        "0,0,0\n1,inf,1\n2,0.2,2\n",  # infinite t_1
        "0,-1e308,0\n1,1e308,1\n2,1.7e308,2\n",  # t_1 - t_0 overflows
        "0,0,0\n1,1e308,1\n2,1.7e308,2\n",  # 2 * delta overflows
    ],
    ids=["header only", "infinite t", "infinite step", "overflowing grid"],
)
def test_estimate_rejects_degenerate_csv_with_one_error_line(tmp_path, capsys, body):
    # exit 2 with fracou's message only: no numpy warning on stderr first
    path = tmp_path / "path.csv"
    path.write_text("i,t,x\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["estimate", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_to_directory_exits_2_before_the_draw(tmp_path, capsys, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a path for an output that cannot be written")

    monkeypatch.setattr(fou, "simulate_path", no_draw)
    args = ["simulate", "--theta", "1", "--hurst", "0.7", "--n", "1048576", "--delta", "0.01"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    assert "directory" in capsys.readouterr().err


def test_simulate_removes_its_output_when_the_draw_fails(tmp_path, capsys, monkeypatch):
    def failing_draw(*args, **kwargs):
        raise RuntimeError("draw failed")

    monkeypatch.setattr(fou, "simulate_path", failing_draw)
    out = tmp_path / "path.csv"
    assert run_cli(SIM_ARGS + ["--out", str(out)]) == 1
    assert "draw failed" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_stdout_matches_file_across_write_blocks(tmp_path, capsys):
    args = list(SIM_ARGS)
    args[args.index("--n") + 1] = str(2 * fou._CSV_ROWS + 3)
    out = tmp_path / "path.csv"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert run_cli(args + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_estimate_missing_file_exits_2(capsys):
    assert run_cli(["estimate", "--in", "/nonexistent/path.csv"]) == 2


def _not_utf8(tmp_path, head):
    # a valid UTF-8 head, then a byte no UTF-8 text contains
    path = tmp_path / "latin1.txt"
    path.write_bytes(head.encode() + b"\xff\n")
    return path


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_estimate_unreadable_input_exits_2(tmp_path, capsys, kind):
    text = (DATA / "golden_path.csv").read_text()
    path = tmp_path if kind == "directory" else _not_utf8(tmp_path, text)
    assert run_cli(["estimate", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: path CSV") and kind in err


def test_simulate_to_directory_exits_2(tmp_path, capsys):
    args = ["simulate", "--theta", "1", "--hurst", "0.7", "--n", "50", "--delta", "0.1"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: path CSV") and "directory" in err
    assert err.count("\n") == 1


def test_theory_json_keys(capsys):
    args = ["theory", "--theta", "1.0", "--hurst", "0.7", "--n", "1000", "--gamma", "0.6"]
    assert run_cli(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "alpha_n",
        "alpha_limit_rate",
        "a_theta_h",
        "ef2",
        "ef2_source",
        "lambda_n",
        "sigma_h2",
        "budget",
    }
    assert doc["budget"] is None
    assert doc["ef2_source"] == "asymptotic"
    assert doc["alpha_limit_rate"] == pytest.approx(0.6210846722521527, rel=1e-12)


def test_theory_budget_block(capsys):
    args = [
        "theory", "--theta", "1.0", "--hurst", "0.7", "--n", "1000",
        "--delta", "0.05", "--eta", "0.1", "--dlt", "0.1",
    ]
    assert run_cli(args) == 0
    doc = json.loads(capsys.readouterr().out)
    budget = doc["budget"]
    assert {"t1", "t2", "t3", "t4", "t5", "t6", "t7", "total", "constant_c"} <= set(budget)
    assert budget["constant_c"] == 1
    assert budget["total"] == pytest.approx(
        sum(budget[f"t{i}"] for i in range(1, 8)), rel=1e-12
    )


def test_theory_eta_without_dlt_exits_2(capsys):
    args = ["theory", "--theta", "1.0", "--hurst", "0.7", "--n", "1000",
            "--delta", "0.05", "--eta", "0.1"]
    assert run_cli(args) == 2


def test_theory_pole_exits_2(capsys):
    args = ["theory", "--theta", "1.0", "--hurst", "0.75", "--n", "1000", "--gamma", "0.6"]
    assert run_cli(args) == 2


def test_theory_gamma_outside_window_exits_2(capsys):
    args = ["theory", "--theta", "1.0", "--hurst", "0.7", "--n", "1000", "--gamma", "0.2"]
    assert run_cli(args) == 2
    assert "admissible interval" in capsys.readouterr().err


def _mc_config(tmp_path, **overrides):
    """Write a small valid mc config; an override of None removes the key."""
    doc = {
        "theta": 1.0,
        "hurst": 0.6,
        "replications": 100,
        "seed": 11,
        "oversample": 2,
        "schedule": [{"n": 16, "delta": 0.25}],
    }
    doc.update(overrides)
    doc = {key: value for key, value in doc.items() if value is not None}
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(doc))
    return cfg


def test_mc_smoke_and_csv(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    out_csv = tmp_path / "report.csv"
    cfg = _mc_config(tmp_path, out_json=str(out_json), out_csv=str(out_csv))
    assert run_cli(["mc", str(cfg), "--threads", "1"]) == 0
    report = json.loads(out_json.read_text())
    assert report["replications"] == 100
    assert len(report["schemes"]) == 1
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "n,delta,T,mean,sd,bias,ks,var_ratio,degenerate,budget_total,seconds"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "16"
    assert float(cells[2]) == pytest.approx(4.0)
    assert cells[9] == ""  # no budget configured


def test_mc_oversample_key_accepted_with_note(tmp_path, capsys):
    cfg = _mc_config(tmp_path)
    assert run_cli(["mc", str(cfg), "--threads", "1"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if "oversample" in line]) == 1
    doc = json.loads(cfg.read_text())
    del doc["oversample"]
    cfg.write_text(json.dumps(doc))
    assert run_cli(["mc", str(cfg), "--threads", "1"]) == 0
    assert "oversample" not in capsys.readouterr().err


def test_mc_unknown_key_exits_2(tmp_path, capsys):
    cfg = _mc_config(tmp_path, typo_key=1)
    assert run_cli(["mc", str(cfg)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_mc_missing_key_exits_2(tmp_path, capsys):
    doc = {"theta": 1.0, "hurst": 0.6, "schedule": [{"n": 16, "delta": 0.25}]}
    cfg = tmp_path / "mc.json"
    cfg.write_text(json.dumps(doc))
    assert run_cli(["mc", str(cfg)]) == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"schedule": [16]},  # entry is not an object
        {"schedule": [{"n": 16}]},  # entry without delta
        {"replications": "100"},
        {"schedule": None, "n_list": [16], "gamma": "0.6"},
        {"schedule": [{"n": 16.5, "delta": 0.25}]},
        {"theta": True},  # a bool is not a number
    ],
)
def test_mc_malformed_config_exits_2(tmp_path, capsys, overrides):
    cfg = _mc_config(tmp_path, **overrides)
    assert run_cli(["mc", str(cfg), "--threads", "1"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"ef2_mode": "foo"},
        {"eta": 1.5, "dlt": 0.1},
        {"eta": 0.1, "dlt": 0},
        {"ef2_mode": "quadrature", "schedule": [{"n": 16, "delta": 6.25}]},  # T = 100
        {"schedule": [{"n": 16, "delta": 0.25}, {"n": 2**24, "delta": 0.25}]},
        {"seed": -1},
    ],
)
def test_mc_invalid_config_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, overrides):
    _forbid_draws(monkeypatch)
    cfg = _mc_config(tmp_path, **overrides)
    assert run_cli(["mc", str(cfg), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert "replication failed" not in err and "a replication was drawn" not in err


def _forbid_draws(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a replication was drawn")

    # every draw of `fracou mc` goes through run_block, which draws by simulate_paths
    monkeypatch.setattr(montecarlo, "run_block", no_draw)
    monkeypatch.setattr(montecarlo, "simulate_paths", no_draw)


def test_mc_draw_guard_sees_a_valid_run_draw(tmp_path, capsys, monkeypatch):
    # the guard above is not vacuous: a valid config does reach a patched name
    _forbid_draws(monkeypatch)
    assert run_cli(["mc", str(_mc_config(tmp_path)), "--threads", "1"]) == 1
    assert "a replication was drawn" in capsys.readouterr().err


def test_mc_empty_schedule_exits_2(tmp_path, capsys):
    cfg = _mc_config(tmp_path, schedule=[])
    assert run_cli(["mc", str(cfg)]) == 2


def test_mc_schedule_and_gamma_conflict_exits_2(tmp_path, capsys):
    cfg = _mc_config(tmp_path, gamma=0.6)
    assert run_cli(["mc", str(cfg)]) == 2


def test_mc_gamma_outside_window_exits_2(tmp_path, capsys):
    cfg = _mc_config(tmp_path)
    doc = json.loads(cfg.read_text())
    del doc["schedule"]
    doc["n_list"] = [16]
    doc["gamma"] = 0.9
    cfg.write_text(json.dumps(doc))
    assert run_cli(["mc", str(cfg)]) == 2


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_mc_nonpositive_threads_exits_2(tmp_path, capsys, monkeypatch, threads):
    cfg = _mc_config(tmp_path)
    assert run_cli(["mc", str(cfg), "--threads", threads]) == 2
    assert "worker count" in capsys.readouterr().err
    monkeypatch.setenv("FOU_THREADS", threads)
    assert run_cli(["mc", str(cfg)]) == 2


@pytest.mark.parametrize("kind", ["directory", "not UTF-8"])
def test_mc_unreadable_config_exits_2(tmp_path, capsys, kind):
    cfg = _mc_config(tmp_path)
    path = tmp_path if kind == "directory" else _not_utf8(tmp_path, cfg.read_text())
    assert run_cli(["mc", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mc config") and kind in err


def test_mc_malformed_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "mc.json"
    cfg.write_text("{not json")
    assert run_cli(["mc", str(cfg)]) == 2


def test_mc_thread_invariance(tmp_path, capsys):
    outs = []
    for threads, name in ((1, "a.json"), (3, "b.json")):
        out_json = tmp_path / name
        cfg = _mc_config(tmp_path, out_json=str(out_json))
        assert run_cli(["mc", str(cfg), "--threads", str(threads)]) == 0
        doc = json.loads(out_json.read_text())
        for row in doc["schemes"]:
            row.pop("seconds", None)
        outs.append(json.dumps(doc, sort_keys=True))
    assert outs[0] == outs[1]
