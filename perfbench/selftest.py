"""Self-test of the benchmark, at tiny sizes.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload, cut down to a tiny size, completes with
its output check passing, untraced and traced, and that a reference
output corrupted beyond the tolerance makes the sample count as failed.
It exits 0 when all of that holds and 1 otherwise.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def corrupt(refs):
    """Perturb one number of each reference in ``refs`` beyond the tolerance."""
    for name in ("wz", "bounds"):
        path = workloads.reference_path(name, workloads.input_seeds(name, 0), True, refs)
        with gzip.open(path, "rt", newline="") as handle:
            rows = list(csv.reader(handle))
        rows[1][-1] = repr(float(rows[1][-1]) * (1 + 1e-9))
        text = io.StringIO()
        csv.writer(text, lineterminator="\r\n").writerows(rows)
        with gzip.open(path, "wt", newline="") as handle:
            handle.write(text.getvalue())
    path = workloads.reference_path("bphz", {}, True, refs)
    want = json.loads(path.read_text())
    want["cases"] += 1
    path.write_text(json.dumps(want))


def main():
    problems = []
    layer_names = {m["name"] for m in run.LAYERS["metrics"]}
    for name in workloads.NAMES:
        for trace in (False, True):
            line, report = run.run(name, 0, 1, trace, tiny=True)
            expected = layer_names if trace else set(run.END_TO_END)
            if not line["correct"] or report["fail_rate"] != 0:
                problems.append(f"{name} trace={trace}: {report['samples']}")
            elif set(line["metrics"]) != expected:
                problems.append(f"{name} trace={trace}: metrics {sorted(line['metrics'])}")
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        refs = Path(tmp) / "refs"
        shutil.copytree(workloads.REFS, refs)
        corrupt(refs)
        for name in ("wz", "bounds", "bphz"):
            line, report = run.run(name, 0, 1, False, tiny=True, refs=refs)
            if line["correct"] or report["fail_rate"] != 1:
                problems.append(f"{name}: corrupted reference not caught")
    for problem in problems:
        print(problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
