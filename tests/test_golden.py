"""Sweep reports against committed golden bytes.

The inputs under ``tests/data`` are ``deg256.json``, one seeded coefficient
per shell on shells 0..256 (``numpy.random.default_rng(256)``: a random
frequency of each shell, standard normal real and imaginary parts), and
``small.json``, ``random_spectrum(4, numpy.random.default_rng(3))``.  The
reports under ``tests/data/golden`` were written by the commands below,
run in a directory holding copies of those inputs, so the relative input
paths in the config echo and the family names match.  A change that is
meant to move a reported number regenerates the report it moves, in the
same way, and says so.
"""

import shutil
from pathlib import Path

import pytest

from hexsum.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = {
    "battery_kfun_n2": ["kfun", "--n", "2"],
    "battery_rates_r2": ["rates", "--r", "2"],
    "battery_approximate_r2": ["approximate", "--r", "2"],
    "bernstein_r3": ["bernstein", "--r", "3", "--rho-kmax", "5"],
    "deg256_kfun_n2": ["kfun", "--n", "2", "--input", "deg256.json"],
    "kernel_seed0": ["kernel", "--seed", "0", "--rho-kmax", "5"],
    "small_kfun_grid40_p3": ["kfun", "--grid", "40", "--p", "3", "--input", "small.json"],
    "small_approximate_grid40_pinf": [
        "approximate", "--r", "2", "--grid", "40", "--p", "inf", "--input", "small.json"
    ],
    "verify_seed0": ["verify", "--seed", "0"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_is_byte_identical_to_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for inp in ("deg256.json", "small.json"):
        shutil.copy(DATA / inp, tmp_path / inp)
    assert main(GOLDEN[name] + ["--format", "json", "--out", "report.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == (DATA / "golden" / f"{name}.json").read_bytes()
