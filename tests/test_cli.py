import csv

import pytest

import wg_shishkin.solver as solver
from wg_shishkin.cli import build_parser, main


def test_parser_accepts_presets():
    parser = build_parser()
    for name in (f"table{i}" for i in range(1, 7)):
        args = parser.parse_args([name])
        assert args.command == name


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_writes_csv_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["run", "--example", "0", "--k", "4", "--eps", "1",
                 "--N", "8", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert len(rows) == 1
    assert rows[0]["example"] == "0"
    assert rows[0]["N"] == "8"
    assert float(rows[0]["error_full"]) < 1e-8  # polynomial solution is exact
    captured = capsys.readouterr()
    assert "N=8" in captured.err  # progress goes to stderr
    assert captured.out == ""


def test_run_writes_csv_to_stdout(capsys):
    code = main(["run", "--example", "0", "--k", "4", "--eps", "1e-3",
                 "--N", "8", "--quad", "6", "--solver", "pcg",
                 "--condense", "on"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "example,mesh,k,eps,N,error,order,error_full"
    assert len(lines) == 2


def test_invalid_sweep_is_an_error():
    with pytest.raises(ValueError):
        main(["run", "--example", "1", "--k", "3", "--eps", "1",
              "--N", "8,24"])


def test_run_accepts_degree_above_four(tmp_path):
    out = tmp_path / "k5.csv"
    code = main(["run", "--example", "0", "--k", "5", "--eps", "1",
                 "--N", "8", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as stream:
        rows = list(csv.DictReader(stream))
    assert rows[0]["k"] == "5"
    assert float(rows[0]["error_full"]) < 1e-8  # polynomial solution is exact


def test_degree_below_three_is_an_error():
    with pytest.raises(ValueError, match="degree k must be >= 3"):
        main(["run", "--example", "0", "--k", "2", "--eps", "1", "--N", "8"])


@pytest.mark.parametrize("method", ["direct", "pcg"])
def test_memory_failure_is_a_solver_failure(monkeypatch, capsys, method):
    def numeric(*args):
        raise AssertionError("numeric factorization started")

    monkeypatch.setattr(solver, "_physical_memory", lambda: 1 << 18)
    monkeypatch.setattr(solver, "_factor_fronts", numeric)
    code = main(["run", "--example", "1", "--k", "3", "--eps", "1e-2",
                 "--N", "8", "--solver", method])
    assert code == 1
    captured = capsys.readouterr()
    assert "solver failure" in captured.err
    assert "physical memory" in captured.err
    assert captured.out == ""
