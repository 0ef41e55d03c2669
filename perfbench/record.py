"""Re-record perfbench/references.json.

    python3 perfbench/record.py

Runs once every step checked against recorded values (inputs that do not
depend on the seed) and stores its report rows, minus the fields listed in
workloads.UNRECORDED.  Run it only when a workload's steps change; the
recorded values are the reference a later commit is checked against.
"""

from __future__ import annotations

import json
import shutil

import run
import workloads


def main() -> None:
    work = run.ROOT / ".perfbench" / "record"
    work.mkdir(parents=True, exist_ok=True)
    worker = run.Worker(run.child_env(), work)
    references: dict = {}
    try:
        for workload in workloads.WORKLOADS.values():
            for step in workload.steps:
                if step.check is not workloads.recorded:
                    continue
                out = work / "report.json"
                reply = worker.call({
                    "op": "step", "span": step.span, "trace": False,
                    "argv": step.argv(0, work) + ["--format", "json", "--out", str(out)],
                })
                if reply.get("error") or reply["rc"] != 0:
                    raise RuntimeError(f"{workload.name} {step.span} failed: {reply}")
                rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
                references.setdefault(workload.name, {})[step.label] = [
                    {k: v for k, v in row.items() if k not in workloads.UNRECORDED}
                    for row in rows
                ]
    finally:
        worker.close()
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "references.json"
    path.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
