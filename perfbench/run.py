"""hexsum benchmark: times `hexsum` commands end to end and, traced, per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json; the steps of each
workload are in perfbench/workloads.py.  One run:

1. starts a worker interpreter (perfbench/worker.py) that imports
   hexsum.cli from ./src and forks one child per step, so no in-process
   cache survives from one command to the next;
2. writes the workload's seeded inputs through the public hexsum API
   (not timed);
3. with --trace 0, times `import hexsum.cli` in fresh interpreters
   (setup_s, median of SETUP_REPEATS);
4. repeats passes over the workload's steps for --seconds (at least
   MIN_PASSES), timing each step around `hexsum.cli.main` (or the library
   round trip) inside its child, and checks every report;
5. prints the metrics as the last line of stdout:
   --trace 0: wall_s (sum over steps of the per-step median), setup_s,
   peak_rss_mb (median over passes of the largest step peak RSS);
   --trace 1: alternates untraced and traced passes and reports the
   per-layer metrics (low medians over traced passes) and the tracing
   overhead.

Every result, with an environment stamp, is also written to
.perfbench/results/.  BLAS/OpenMP threads of all processes are capped at
the number of usable CPUs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _thread_cap(value: str | None) -> str:
    try:
        return str(max(1, min(int(value), NPROC)))
    except (TypeError, ValueError):
        return str(NPROC)


# set before numpy is imported here or in any child process
for _var in THREAD_VARS:
    os.environ[_var] = _thread_cap(os.environ.get(_var))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import hexsum.cli; "
    "print(time.perf_counter() - t)"
)


class Worker:
    """The step server process (perfbench/worker.py), one per run."""

    def __init__(self, env: dict, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=cwd,
            start_new_session=True,  # its forked step children share its group
        )
        if json.loads(self.proc.stdout.readline() or "{}").get("ready") is not True:
            raise RuntimeError("benchmark worker failed to start")

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark worker exited")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts in every run
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def measure_setup(env: dict, cwd: Path) -> list[float]:
    return [
        float(
            subprocess.run(
                [sys.executable, "-c", IMPORT_TIMER],
                env=env,
                cwd=cwd,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
        )
        for _ in range(SETUP_REPEATS)
    ]


def run_step(worker: Worker, step, ctx, traced: bool) -> dict:
    """Run one step in a fresh child and check its output."""
    out = ctx.inputs / f"{step.span}.out.json"
    out.unlink(missing_ok=True)
    request = {"op": "step", "span": step.span, "trace": traced, "argv": None}
    if step.command == "roundtrip":
        request["roundtrip"] = {
            "input": str(ctx.inputs / step.flags["input"]),
            "grid": step.flags["grid"],
            "degree": step.flags["degree"],
            "out": str(out),
        }
    else:
        request["argv"] = step.argv(ctx.seed, ctx.inputs) + ["--format", "json", "--out", str(out)]
    reply = worker.call(request)
    return {
        "step": step.label,
        "elapsed_s": reply.get("elapsed_s"),
        "maxrss_kb": reply["maxrss_kb"],
        "trace": reply.get("trace"),
        "problems": judge(step, reply, out, ctx),
    }


def judge(step, reply: dict, out: Path, ctx) -> list[str]:
    if reply.get("error"):
        return [f"exception: {reply['error'].strip().splitlines()[-1]}"]
    if reply["rc"] != 0:
        return [f"exit code {reply['rc']}: {reply['stderr'].strip()}"]
    fails = [line for line in reply["stdout"].splitlines() if line.startswith("FAIL")]
    if fails:
        return fails
    try:
        with open(out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        out.unlink()
        return step.check(report, step, ctx)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {exc!r}"]


def step_medians(passes: list[list[dict]]) -> dict[str, float]:
    """Median time of each step over the passes, keyed by step label."""
    labels = [r["step"] for r in passes[0]]
    return {
        label: statistics.median(r["elapsed_s"] for p in passes for r in p if r["step"] == label)
        for label in labels
    }


LAYERS = ("kernels", "fourier.transforms", "fourier.store", "lattice", "means", "families", "verify", "cli")


def pass_trace(results: list[dict]) -> dict:
    """Merge the step summaries of one traced pass."""
    merged = {"functions": {}, "layers": {}, "roots": {}, "spans": 0}
    for res in results:
        tr = res["trace"]
        for key, stats in tr["functions"].items():
            acc = merged["functions"].setdefault(key, {"calls": 0, "self_s": 0.0, "work": 0})
            for stat, value in stats.items():
                acc[stat] += value
        for part in ("layers", "roots"):
            for key, value in tr[part].items():
                merged[part][key] = merged[part].get(key, 0.0) + value
        merged["spans"] += tr["spans"]
    return merged


def layer_value(name: str, tr: dict) -> float:
    """Value of one per-layer metric in one traced pass (names as in BENCHMARK.json)."""
    key, _, stat = name.rpartition(".")
    if name == "trace.spans":
        return tr["spans"]
    if name == "trace.coverage":  # share of the steps' wall time inside some layer
        return sum(tr["layers"].values()) / sum(tr["roots"].values())
    if stat == "self_s" and key in LAYERS:
        return tr["layers"].get(key, 0.0)
    if stat == "wall_s":
        return tr["roots"].get(key, 0.0)
    if stat not in ("calls", "self_s") and spans.WORK.get(key, (None,))[0] != stat:
        raise ValueError(f"per-layer metric {name!r} names no recorded count")
    fn = tr["functions"].get(key, {"calls": 0, "self_s": 0.0, "work": 0})
    return fn[stat] if stat in ("calls", "self_s") else fn["work"]


def trace_metrics(names: list[str], plain: list, traced: list) -> dict[str, float]:
    """Per-layer (low) medians over the traced passes, and the tracing overhead.

    The low median is a sampled value, so counts stay whole numbers.
    """
    wall = sum(step_medians(traced).values())
    untraced = sum(step_medians(plain).values())
    per_pass = {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced,
        "trace.overhead_s": wall - untraced,
    }
    summaries = [pass_trace(p) for p in traced]
    return {
        name: per_pass[name] if name in per_pass
        else statistics.median_low(layer_value(name, tr) for tr in summaries)
        for name in names
    }


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "nproc": NPROC,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hexsum" / "cli.py").is_file():
        print(f"error: no hexsum source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]

    workload = workloads.WORKLOADS[args.workload]
    references = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    state = ROOT / ".perfbench"
    work = state / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = child_env()
    worker = None
    try:
        worker = Worker(env, work)
        reply = worker.call(
            {"op": "generate", "dir": str(work), "seed": args.seed, "inputs": workload.inputs}
        )
        if reply.get("error"):
            raise RuntimeError(f"input generation failed: {reply['error']}")
        ctx = workloads.Context(args.seed, work, references.get(workload.name, {}))
        setup = [] if args.trace else measure_setup(env, work)

        passes: list[tuple[bool, list[dict]]] = []
        min_passes = 2 * MIN_PASSES if args.trace else MIN_PASSES
        deadline = time.monotonic() + args.seconds
        while len(passes) < min_passes or time.monotonic() < deadline:
            tracing = bool(args.trace) and len(passes) % 2 == 1
            passes.append((tracing, [run_step(worker, s, ctx, tracing) for s in workload.steps]))
    finally:
        if worker is not None:
            worker.close()
        shutil.rmtree(work, ignore_errors=True)

    results = [r for _, p in passes for r in p]
    failed = sum(1 for r in results if r["problems"])
    for r in results:
        for problem in r["problems"][:5]:
            print(f"FAILED {r['step']}: {problem}", file=sys.stderr)

    plain = [p for is_traced, p in passes if not is_traced]
    medians = step_medians(plain)
    traced = [p for is_traced, p in passes if is_traced]
    if args.trace:
        values = trace_metrics([m["name"] for m in wanted], plain, traced)
        per_function = pass_trace(traced[len(traced) // 2])["functions"]
    else:
        values = {
            "wall_s": sum(medians.values()),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(max(r["maxrss_kb"] for r in p) / 1024.0 for p in plain),
        }
        per_function = None

    stamp = environment(args.seed)
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "env": stamp,
        "passes": len(passes),
        "step_median_s": medians,
        "setup_samples_s": setup,
        "samples": [[{k: r[k] for k in ("step", "elapsed_s", "maxrss_kb")} for r in p] for _, p in passes],
        "metrics": values,
        "functions": per_function,
        "attempted": len(results),
        "failed": failed,
    }
    out_dir = state / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("env " + json.dumps(stamp))
    print(f"{workload.name}: {len(passes)} passes, {len(results)} steps, {failed} failed; "
          f"fail_ratio {failed / len(results):.4g}")
    for step_name, value in medians.items():
        print(f"  {step_name:50s} median {value:.4f} s over {len(plain)} untraced passes")
    for name, value in values.items():
        print(f"  {name} = {value:.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
