"""Write the reference outputs that the benchmark checks runs against.

Run it once at the commit whose outputs are the reference, from the root
of a checkout:

    python3 perfbench/make_refs.py

For every input set of ``wz`` and ``bounds`` at full size, and for input
set 0 at the tiny size of the self-test, it stores the CSV that the
command line writes, gzipped.  For ``bphz`` it stores the report's status
and case count with the exit code.  ``axioms`` needs no reference: its
check is the acceptance bound on the worst relative error.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main():
    workloads.REFS.mkdir(exist_ok=True)
    for tiny in (False, True):
        for workload in ("wz", "bounds"):
            for index in range(1 if tiny else workloads.INPUT_SETS):
                seeds = workloads.input_seeds(workload, index)
                with tempfile.TemporaryDirectory(dir=ROOT) as out:
                    argv = workloads.cli_argv(workload, seeds, tiny, out)
                    code, _ = workloads.run_cli(argv)
                    if code != 0:
                        raise SystemExit(f"{workload} {seeds} exited with {code}")
                    ref = workloads.reference_path(workload, seeds, tiny)
                    src = Path(out) / workloads.OUTPUT[workload]
                    with open(src, "rb") as f_in, gzip.GzipFile(ref, "wb", mtime=0) as f_out:
                        shutil.copyfileobj(f_in, f_out)
                print(ref.name, flush=True)
        argv = workloads.cli_argv("bphz", {}, tiny, None)
        code, text = workloads.run_cli(argv)
        report = json.loads(text)
        ref = workloads.reference_path("bphz", {}, tiny)
        want = {"status": report["status"], "cases": report["cases"], "exit_code": code}
        ref.write_text(json.dumps(want) + "\n")
        print(ref.name, want, flush=True)


if __name__ == "__main__":
    main()
