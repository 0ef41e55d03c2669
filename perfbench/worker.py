"""Step server: imports hexsum once, then runs every request in a fork.

Started by ``run.py`` as ``python3 perfbench/worker.py`` with ``src`` on
``PYTHONPATH``.  It reads one JSON request per line on stdin and answers
with one JSON line on stdout.  Each request runs in a child forked from
this process right after ``import hexsum.cli``, so every step starts from
the state a fresh ``hexsum`` invocation has after its imports: no cache
filled by one step survives into the next.  The child times the step
itself; this process adds the child's peak resident memory from ``wait4``.

Requests:
  {"op": "generate", "dir": DIR, "seed": S, "inputs": {NAME: [KIND, DEGREE]}}
  {"op": "step", "span": NAME, "argv": [...] | null, "roundtrip": {...} | null,
   "trace": bool}
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

import hexsum.cli  # noqa: F401  (the import every hexsum invocation pays)

import spans


def generate(req: dict) -> dict:
    """Write the seeded inputs with the public hexsum API; nothing is timed."""
    import numpy as np

    from hexsum.families import random_spectrum
    from hexsum.fourier import SpectralFunction, save_spectral
    from hexsum.lattice import index_shell

    for tag, (name, (kind, degree)) in enumerate(sorted(req["inputs"].items())):
        rng = np.random.default_rng([req["seed"], tag])
        if kind == "random_spectrum":
            f = random_spectrum(degree, rng)
        elif kind == "one_per_shell":
            coeffs = {}
            for nu in range(degree + 1):
                shell = index_shell(nu)
                k = shell[int(rng.integers(len(shell)))]
                coeffs[k] = complex(rng.standard_normal(), rng.standard_normal())
            f = SpectralFunction(coeffs, max_degree=degree)
        else:
            raise ValueError(f"unknown input kind {kind!r}")
        save_spectral(f, os.path.join(req["dir"], name))
    return {"ok": True}


def _roundtrip(spec: dict):
    from hexsum.fourier import analyze, load_spectral, make_grid, synthesize

    f = load_spectral(spec["input"])
    return analyze(synthesize(f, make_grid(spec["grid"])), spec["degree"])


def step(req: dict) -> dict:
    """Run one hexsum command (or the library round trip) and time it."""
    recorder = None
    if req["trace"]:
        recorder = spans.Recorder()
        spans.install(recorder)
    out, err = io.StringIO(), io.StringIO()
    rc, error, result = None, None, None
    span = recorder.root(req["span"]) if recorder else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            if req["argv"] is not None:
                rc = hexsum.cli.main(req["argv"])
            else:
                result = _roundtrip(req["roundtrip"])
                rc = 0
    except Exception:
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    summary = recorder.summary() if recorder else None
    if result is not None:
        # written after the timer stops, without the library's serializer
        entries = [[list(k.as_tuple()), c.real, c.imag] for k, c in result.items()]
        with open(req["roundtrip"]["out"], "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
    return {
        "rc": rc,
        "elapsed_s": elapsed,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "error": error,
        "trace": summary,
    }


HANDLERS = {"generate": generate, "step": step}


def serve(stdin, stdout) -> None:
    for line in stdin:
        req = json.loads(line)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                try:
                    reply = HANDLERS[req["op"]](req)
                    code = 0
                except Exception:
                    reply = {"error": traceback.format_exc()}
                with os.fdopen(write_fd, "w", encoding="utf-8") as fh:
                    json.dump(reply, fh)
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, "r", encoding="utf-8") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
        reply = json.loads(data) if data else {"error": f"child ended with status {status}"}
        reply["maxrss_kb"] = usage.ru_maxrss
        stdout.write(json.dumps(reply) + "\n")
        stdout.flush()


if __name__ == "__main__":
    sys.stdout.write(json.dumps({"ready": True}) + "\n")
    sys.stdout.flush()
    serve(sys.stdin, sys.stdout)
