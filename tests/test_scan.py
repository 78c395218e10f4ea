import csv
import json
import math
import os
import time
from dataclasses import fields, replace

import pytest

from maxop import cli, scan
from maxop.cli import main
from maxop.scan import (
    CSV_HEADER,
    Operator,
    ScanConfig,
    ScanReport,
    ScanRow,
    csv_text,
    emit_csv,
    emit_plotdata,
    report_violations,
    run_scan,
)


def _small_cfg(**kw):
    base = dict(
        operator="HL",
        d_range=(1, 2),
        p_list=(2.0,),
        q_list=(2.0,),
        family="gaussian",
        n_members=2,
        grid=(2.0, 8),
        radii_K=6,
        seed=3,
    )
    base.update(kw)
    return ScanConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(operator="NOPE")
    with pytest.raises(ValueError):
        ScanConfig(family="NOPE")
    # JSON configs can carry non-integral counts, which int() would truncate
    for bad in (dict(d_range=(1.5,)), dict(n_members=2.5), dict(grid=(2.0, 8.5)), dict(radii_K=4.5)):
        with pytest.raises(ValueError):
            ScanConfig(**bad)
    # an empty list gives no rows, and a repeated entry repeats its rows
    for name, repeated in (("d_range", [2, 2.0]), ("p_list", [2, 2.0]), ("q_list", [1.5, 1.5])):
        for bad in ([], repeated):
            with pytest.raises(ValueError, match=name):
                ScanConfig(**{name: bad})


def test_config_json_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"operator": "SPH", "d_range": [2], "seed": 9}))
    cfg = ScanConfig.from_json(str(path))
    assert cfg.operator == "SPH" and cfg.d_range == (2,) and cfg.seed == 9
    path.write_text(json.dumps({"operator": "SPH", "bogus": 1}))
    with pytest.raises(ValueError):
        ScanConfig.from_json(str(path))


# a non-default value of each ScanConfig field: its flag text and its value
NON_DEFAULT = {
    "operator": ("SPH", "SPH"),
    "d_range": ("2,4", (2, 4)),
    "p_list": ("3,1.5", (3.0, 1.5)),
    "q_list": ("1.5", (1.5,)),
    "family": ("random_bumps", "random_bumps"),
    "n_members": ("2", 2),
    "grid": ("2,8", (2.0, 8)),
    "radii_K": ("6", 6),
    "seed": ("7", 7),
    "l": ("3", 3),
    "k": ("2", 2),
}


@pytest.mark.parametrize("name", [f.name for f in fields(ScanConfig)])
def test_each_config_field_is_a_flag_and_a_json_key(tmp_path, monkeypatch, name):
    text, value = NON_DEFAULT[name]
    want = replace(ScanConfig(), **{name: value})
    assert want != ScanConfig()
    seen = []

    def record(cfg, out, plotdata):
        seen.append(cfg)
        return 0

    monkeypatch.setattr(cli, "_run_and_emit", record)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: value}))
    assert main(["scan", f"--{name}", text, "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["scan", "--config", str(path), "--out", str(tmp_path / "b.csv")]) == 0
    assert seen == [want, want]


def test_empty_report_is_header_only():
    assert csv_text(ScanReport(())) == CSV_HEADER + "\n"


def test_rows_roundtrip_and_ratio_invariant(tmp_path):
    rep = run_scan(_small_cfg())
    path = tmp_path / "out.csv"
    emit_csv(rep, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(rep.rows)
    for raw, row in zip(rows, rep.rows):
        assert raw["operator"] == row.operator
        ratio = float(raw["ratio"])
        assert ratio == pytest.approx(float(raw["output_norm"]) / float(raw["input_norm"]), rel=1e-12)
        assert ratio >= 1.0 - 1e-12  # HL rows
    assert report_violations(rep) == []


@pytest.mark.parametrize("operator", ["HL", "MK", "MK_iter"])
def test_dominating_operators_flag_ratio_below_one(operator):
    # each of these outputs dominates |f| pointwise, so a ratio below 1 is a fault
    def row(ratio, name=operator):
        return ScanRow(name, 2, 2.0, 2.0, "gaussian", 2, 1.0, ratio, ratio, 1.0)

    assert report_violations(ScanReport((row(0.9),))) == [f"{operator} d=2 p=2.0 q=2.0: ratio 0.9 < 1"]
    assert report_violations(ScanReport((row(1.0),))) == []
    # the other operators' outputs may fall below |f|, and so may an unknown one's
    for other in ("HL_weighted", "SPH", "MULT_L", "SQFN", "DESCENT", "NOPE"):
        assert report_violations(ScanReport((row(0.9, other),))) == []
    assert {name for name, op in scan.OPERATORS.items() if op.dominates} == {"HL", "MK", "MK_iter"}


def test_rows_sorted_and_deterministic():
    rep1 = run_scan(_small_cfg(d_range=(2, 1)))
    keys = [(r.operator, r.d, r.p, r.q) for r in rep1.rows]
    assert keys == sorted(keys)
    rep2 = run_scan(_small_cfg(d_range=(2, 1)))
    assert csv_text(rep1, mask_wall=True) == csv_text(rep2, mask_wall=True)


def test_error_rows_do_not_abort():
    rep = run_scan(_small_cfg(operator="MULT_L", d_range=(1, 2), radii_K=4, grid=(2.0, 16)))
    tagged = {r.d: r.extra.startswith("error=") for r in rep.rows}
    assert tagged[1] is True and tagged[2] is False
    assert math.isnan(rep.rows[0].ratio)
    assert report_violations(rep) == []



def test_weights_out_of_the_double_range_are_an_error_row():
    # at k = 400 the ball weights of the d = 2 default grid overflow
    rep = run_scan(_small_cfg(operator="HL_weighted", k=400, d_range=(2,), n_members=1, grid=(4.0, 32), radii_K=8))
    assert rep.rows and all(r.extra.startswith("error=weight exponent k=400 on the grid") for r in rep.rows)
    assert all(math.isnan(r.ratio) for r in rep.rows)
    assert report_violations(rep) == []

@pytest.mark.parametrize(
    "kw",
    [
        # no node of the 4-node grid lies in the unit ball
        dict(family="remark_bump", d_range=(1, 2), grid=(4.0, 4)),
        dict(operator="MK", family="remark_bump", d_range=(1,), grid=(4.0, 4)),
        # nor of the 8-node grid at d = 2 in the radius-0.6 ball
        dict(family="ball_indicator", n_members=1, d_range=(2,), grid=(4.0, 8)),
    ],
    ids=["remark_bump", "remark_bump-MK", "ball_indicator"],
)
def test_all_zero_field_is_an_error_row(kw):
    # its input norm is 0, so the ratio does not exist
    rep = run_scan(_small_cfg(**kw))
    assert all(r.extra.startswith("error=") and "is zero on the grid" in r.extra for r in rep.rows)
    assert all(math.isnan(r.ratio) for r in rep.rows)
    assert report_violations(rep) == []


@pytest.mark.parametrize(
    "kw, text",
    [
        # the field fails its precondition
        (dict(family="remark_bump", grid=(4.0, 4)), "every remark_bump member is zero on the grid L=4.0 N=4"),
        # the field is sampled, then the operator fails its precondition
        (dict(operator="MULT_L", grid=(2.0, 16), radii_K=4), "surface multiplier needs d >= 2, got 1"),
    ],
    ids=["field", "operator"],
)
def test_a_failed_dimension_is_sampled_once(monkeypatch, kw, text):
    # a precondition failure is shared by the (p, q) rows of its dimension,
    # as a successful evaluation is
    calls = []
    sample = scan.family_values
    monkeypatch.setattr(scan, "family_values", lambda *a: calls.append(a) or sample(*a))
    rep = run_scan(_small_cfg(d_range=(1,), p_list=(2.0, 3.0), q_list=(1.5, 2.0), **kw))
    assert len(rep.rows) == 4 and len(calls) == 1
    assert [r.extra for r in rep.rows] == [f"error={text}"] * 4
    assert all(math.isnan(r.ratio) for r in rep.rows)


def test_only_declared_preconditions_become_error_rows(monkeypatch):
    # a malformed MAXOP_THREADS is a fault of the caller, not a precondition
    # of the operator: a direct call raises instead of writing an error row
    monkeypatch.setenv("MAXOP_THREADS", "abc")
    with pytest.raises(ValueError, match="MAXOP_THREADS"):
        run_scan(_small_cfg(d_range=(2,), grid=(2.0, 12)))
    monkeypatch.delenv("MAXOP_THREADS")
    rep = run_scan(_small_cfg(operator="DESCENT", d_range=(3,), p_list=(math.inf,), grid=(2.0, 8), radii_K=4))
    assert rep.rows[0].extra == "error=dimension_split needs finite exponents"


def test_wall_ms_carries_the_shared_operator_time(monkeypatch):
    def sleepy(cfg, F, key):
        time.sleep(0.05)
        return F, ""

    monkeypatch.setitem(scan.OPERATORS, "HL", Operator(sleepy))
    rep = run_scan(_small_cfg(d_range=(1, 2), p_list=(2.0, 3.0), q_list=(1.5, 2.0)))
    assert len(rep.rows) == 8
    assert all(r.wall_ms >= 50.0 for r in rep.rows)


def test_plotdata_blocks(tmp_path):
    rep = run_scan(_small_cfg(p_list=(2.0, 3.0)))
    path = tmp_path / "plot.txt"
    emit_plotdata(rep, str(path))
    text = path.read_text()
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 2  # one per (p, q)
    for block in blocks:
        lines = block.strip().splitlines()
        assert lines[0].startswith("# operator=HL family=gaussian")
        for line in lines[1:]:
            d_str, ratio_str = line.split()
            int(d_str), float(ratio_str)


def test_single_member_ratio_ignores_q():
    # with one member the l^q reduction collapses to |f|, so the ratio is the
    # scalar L^p ratio whatever q is
    a = run_scan(_small_cfg(n_members=1, q_list=(2.0,), d_range=(2,)))
    b = run_scan(_small_cfg(n_members=1, q_list=(5.0,), d_range=(2,)))
    assert a.rows[0].ratio == pytest.approx(b.rows[0].ratio, rel=1e-12)


def test_sph_remark_bump_records_slope():
    cfg = _small_cfg(
        operator="SPH", family="remark_bump", d_range=(3,), grid=(6.0, 48), radii_K=24
    )
    rep = run_scan(cfg)
    row = rep.rows[0]
    assert row.extra.startswith("slope=")
    slope = float(row.extra.split("=", 1)[1])
    assert -3.0 < slope < -1.0  # ~ -(d-1) on a coarse grid


def test_grushin_rows_carry_note():
    rep = run_scan(_small_cfg(operator="MK", d_range=(1,), grid=(2.0, 8), radii_K=4))
    assert all("cc_note=" in r.extra for r in rep.rows)
    assert all("M_CC" in r.extra for r in rep.rows)


def test_descent_rows_record_split():
    rep = run_scan(_small_cfg(operator="DESCENT", d_range=(3,), grid=(2.0, 8), radii_K=4))
    assert rep.rows[0].extra == "d_prime=3"
    rep_err = run_scan(_small_cfg(operator="DESCENT", d_range=(2,), grid=(2.0, 8), radii_K=4))
    assert rep_err.rows[0].extra.startswith("error=")


def test_cli_scan_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(
        [
            "scan",
            "--operator", "HL",
            "--d_range", "1,2",
            "--p_list", "2",
            "--q_list", "2",
            "--n_members", "2",
            "--grid", "2,8",
            "--radii_K", "6",
            "--seed", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_text().startswith(CSV_HEADER)
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # missing --out
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "flags,env",
    [
        (["--p_list", "1.0"], None),
        ([], "abc"),
        (["--d_range", "0"], None),
        (["--n_members", "0"], None),
        (["--operator", "SQFN", "--l", "0"], None),
        (["--q_list", "inf"], None),
        (["--grid", "0,8"], None),
        (["--grid", "2,5"], None),
        (["--radii_K", "1"], None),
        (["--k", "-1"], None),
        (["--seed", "-1"], None),
        (["--d_range", ""], None),
        (["--p_list", ""], None),
        (["--q_list", ""], None),
        (["--d_range", "1,1"], None),
        (["--p_list", "2,2"], None),
        (["--q_list", "2,2"], None),
        ([], "0"),
        ([], "-2"),
        # DESCENT on N = 4: its radii would run from h = L/2 to L/2
        (["--operator", "DESCENT", "--d_range", "3", "--grid", "4,4"], None),
        # MK on L = 0.2: its Koranyi radii end at 1.2, past the box's limit 1.03
        (["--operator", "MK", "--d_range", "1", "--grid", "0.2,8"], None),
    ],
)
def test_cli_rejects_bad_config_up_front(tmp_path, monkeypatch, capsys, flags, env):
    if env is not None:
        monkeypatch.setenv("MAXOP_THREADS", env)
    out = tmp_path / "scan.csv"
    base = ["scan", "--operator", "HL", "--d_range", "1", "--n_members", "1",
            "--grid", "2,8", "--radii_K", "4", "--out", str(out)]
    rc = main(base + flags)
    assert rc == 1
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config,named",
    [
        ([1, 2], "JSON object"),
        (None, "JSON object"),
        ({"p_list": 2}, "p_list"),
        ({"d_range": 2}, "d_range"),
        ({"grid": 5}, "grid"),
        ({"grid": [[4.0], 8]}, "half-width L"),
        ({"operator": ["HL"]}, "operator"),
        ({"q_list": [[2]]}, "exponent q"),
    ],
    ids=["list", "null", "p_list", "d_range", "grid", "grid-L", "operator", "q_list"],
)
def test_cli_rejects_malformed_json_config(tmp_path, capsys, config, named):
    # a wrong-typed field is a usage error that names the field, not a traceback
    path, out = tmp_path / "cfg.json", tmp_path / "scan.csv"
    path.write_text(json.dumps(config))
    assert main(["scan", "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("maxop: error:")]
    assert len(errors) == 1 and named in errors[0]


@pytest.mark.parametrize("flags", [["--d", "2"], ["--l_max", "1"]])
def test_cli_rejects_bad_decay_range_up_front(tmp_path, capsys, flags):
    out = tmp_path / "decay.csv"
    rc = main(["decay", "--out", str(out)] + flags)
    assert rc == 1
    assert not out.exists()
    assert "maxop: error:" in capsys.readouterr().err


def test_cli_decay(tmp_path):
    out = tmp_path / "decay.csv"
    rc = main(["decay", "--d", "3", "--l_max", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "l,c1,c2,c3"
    assert len(lines) == 3


def test_cli_grushin(tmp_path):
    out = tmp_path / "gr.csv"
    rc = main(
        [
            "grushin",
            "--d_range", "1",
            "--n_members", "2",
            "--grid", "2,8",
            "--radii_K", "4",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert (tmp_path / "gr_mk.csv").exists()
    assert (tmp_path / "gr_mk_iter.csv").exists()


def test_cli_grushin_suffixes_the_file_name_only(tmp_path):
    # the _mk and _mk_iter suffixes go before the file's own extension, not
    # after a dot in a directory name
    run = tmp_path / "run.1"
    run.mkdir()
    rc = main(
        [
            "grushin",
            "--d_range", "1",
            "--n_members", "2",
            "--grid", "2,8",
            "--radii_K", "4",
            "--out", str(run / "grushin"),
            "--plotdata", str(run / "g.dat"),
        ]
    )
    assert rc == 0
    assert sorted(p.name for p in run.iterdir()) == ["g_mk.dat", "g_mk_iter.dat", "grushin_mk.csv", "grushin_mk_iter.csv"]


@pytest.mark.parametrize("where", ["missing", "directory"])
@pytest.mark.parametrize(
    "command,flag",
    [("scan", "--out"), ("scan", "--plotdata"), ("grushin", "--out"), ("grushin", "--plotdata"), ("decay", "--out")],
)
def test_cli_rejects_bad_output_path_up_front(tmp_path, monkeypatch, capsys, command, flag, where):
    def work(*args, **kwargs):
        raise AssertionError("work began before the output path was checked")

    monkeypatch.setattr(cli, "run_scan", work)
    monkeypatch.setattr(cli, "decay_constants", work)
    (tmp_path / "existing").mkdir()
    bad = tmp_path / "missing" / "x.csv" if where == "missing" else tmp_path / "existing"
    paths = {"--out": str(tmp_path / "ok.csv"), flag: str(bad)}
    argv = [command] + [v for item in paths.items() for v in item]
    if command != "decay":
        argv += ["--d_range", "1", "--grid", "2,8"]
    assert main(argv) == 1
    assert "maxop: error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
    assert not any((tmp_path / "existing").iterdir())


def test_maxop_threads_env(monkeypatch):
    from maxop.grid import fft_workers

    monkeypatch.setenv("MAXOP_THREADS", "3")
    assert fft_workers() == 3
    for bad in ("abc", "0", "-2"):
        monkeypatch.setenv("MAXOP_THREADS", bad)
        with pytest.raises(ValueError, match="MAXOP_THREADS must be an integer >= 1"):
            fft_workers()
    monkeypatch.delenv("MAXOP_THREADS")
    assert fft_workers() >= 1
    # the default counts the CPUs this process may run on, not the host's
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fft_workers() == 1
