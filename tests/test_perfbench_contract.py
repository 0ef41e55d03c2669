"""The library surface that the benchmark under ``perfbench/`` relies on.

The benchmark's worker writes its inputs with the public API (the
``random_spectrum`` and ``one_per_shell`` kinds), and a traced step wraps
every public hexsum function plus the ``SpectralFunction`` methods named in
``perfbench/spans.py``.  A name it uses that goes missing makes a step fail.
The worker runs in a subprocess, as the benchmark starts it, because a
traced step rewrites hexsum's module namespaces.  The steps whose rows the
benchmark compares with ``perfbench/references.json`` are replayed here
too, so a change that moves one of those rows fails in the suite first.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from hexsum.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: perfbench/workloads.py's RTOL, the relative tolerance of a recorded float
RECORDED_RTOL = 1e-9


def test_worker_generates_inputs_and_runs_traced_steps(tmp_path):
    requests = [
        {
            "op": "generate",
            "dir": str(tmp_path),
            "seed": 0,
            "inputs": {"grid.json": ["random_spectrum", 6], "sparse.json": ["one_per_shell", 8]},
        },
        {
            "op": "step", "span": "lib.roundtrip", "trace": True, "argv": None,
            "roundtrip": {
                "input": str(tmp_path / "grid.json"), "grid": 28, "degree": 6,
                "out": str(tmp_path / "roundtrip.json"),
            },
        },
        {
            "op": "step", "span": "cli.verify", "trace": True, "roundtrip": None,
            "argv": ["verify", "--seed", "0", "--format", "json", "--out", str(tmp_path / "v.json")],
        },
        {
            "op": "step", "span": "cli.bernstein", "trace": True, "roundtrip": None,
            "argv": ["bernstein", "--r", "3", "--rho-kmax", "3", "--out", str(tmp_path / "b.csv")],
        },
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        input="".join(json.dumps(r) + "\n" for r in requests),
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ready, generated, *steps = [json.loads(line) for line in proc.stdout.splitlines()]
    assert ready == {"ready": True}
    assert generated.get("ok") is True, generated.get("error")
    assert len(json.loads((tmp_path / "sparse.json").read_text())["entries"]) == 9
    for reply in steps:
        assert reply["error"] is None, reply["error"]
        assert reply["rc"] == 0, reply["stderr"]
        assert reply["trace"]["spans"] > 1
    assert len(json.loads((tmp_path / "roundtrip.json").read_text())) == 1 + 3 * 6 * 7
    # perfbench/spans.py counts the work of bernstein_integral as
    # BernsteinResult.grid_n**2: rho = 1/2, 3/4, 7/8 take the auto grids 64, 128, 256
    bernstein = steps[-1]["trace"]["functions"]["kernels.bernstein_integral"]
    assert (bernstein["calls"], bernstein["work"]) == (3, 64**2 + 128**2 + 256**2)


def test_recorded_steps_replay_their_references(tmp_path):
    # compared as perfbench/workloads.py's recorded() compares them: the row
    # count, each recorded float within RECORDED_RTOL relative (finite), and
    # every other recorded field exactly; fields not recorded are not compared
    references = json.loads((ROOT / "perfbench" / "references.json").read_text())
    for workload, steps in references.items():
        for label, want in steps.items():
            out = tmp_path / "report.json"
            assert main(label.split() + ["--format", "json", "--out", str(out)]) == 0, label
            rows = json.loads(out.read_text())["rows"]
            assert len(rows) == len(want), (workload, label)
            for i, (row, ref) in enumerate(zip(rows, want)):
                for key, value in ref.items():
                    got = row.get(key)
                    if isinstance(value, float):
                        got = float(got)
                        ok = math.isfinite(got) and abs(got - value) <= RECORDED_RTOL * abs(value)
                    else:
                        ok = got == value
                    assert ok, (workload, label, i, key, got, value)
