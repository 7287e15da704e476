"""Smoke tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "TABLE I" in out
    assert "XNOR" in out


def test_table2(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "TABLE II" in out
    assert "h_dc" in out


def test_fig1(capsys):
    assert main(["fig1"]) == 0
    out = capsys.readouterr().out
    assert "x2 & x4" in out


def test_fig2(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "x3 ^ x4" in out


def test_bench_single(capsys):
    assert main(["bench", "z4", "--no-paper"]) == 0
    out = capsys.readouterr().out
    assert "z4 (7/4)" in out


def test_table_subset(capsys):
    assert main(["table4", "--names", "z4"]) == 0
    out = capsys.readouterr().out
    assert "z4" in out
    assert "shape summary" in out


def test_table_unknown_name_exits_1_listing_rows():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "table4", "--names", "z4x"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "KeyError" in proc.stderr
    assert "z4x" in proc.stderr and "'Z5xp1'" in proc.stderr
    assert "TABLE IV" not in proc.stdout


def test_table_rejects_row_of_other_table():
    with pytest.raises(KeyError, match="chkn"):
        main(["table4", "--names", "z4", "chkn"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])
