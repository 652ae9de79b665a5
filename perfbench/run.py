"""Benchmark of the roughrenorm package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wz --seed 0 --seconds 30 --trace 0

Each sample runs one workload (see ``workloads.py``) in a fresh
interpreter started by ``worker.py``, so every sample pays the cold
module-level memo tables that every command-line call pays.  Samples are
taken one after another, closed-loop, until the next one would end after
``--seconds``; at least one is always taken.

The CPU speed of a shared virtual machine drifts: on the 2-vCPU machine
the baseline in ``layers.json`` was measured on, a fixed interpreter-bound
loop ran at anywhere from half to full speed, each vCPU on its own and
changing within a second, so raw times of one workload differed by up
to 45% between samples.  So the runner pins itself and every sample to one CPU
and, while a sample runs, wakes every ``PROBE_INTERVAL_S`` to time a
small fixed piece of work (``probe``) on that same CPU.  Each time
metric of a sample is reported at the reference speed: the measured
seconds times a speed factor, ``PROBE_REF_S`` over the trimmed mean of
the CPU times of the probes taken in the interval it measures, raised to
``SPEED_EXPONENT``.  Wall times first lose the time for which the host
ran something else on that CPU (steal, read from ``/proc/stat``), which
no probe can see.  The exponent is below 1 because most workloads slow
less than the probe does.  Over 20 to 30 runs of 30 s of each workload,
spread over two hours and speed factors from 0.5 to 1.05, it was chosen from
0.7 to 1.1 as the one that gave the narrowest spread of the runs'
median ``run_s`` and ``cpu_s``: with 0.9 the quartiles lay 2-4% apart
on every workload, against 2-6% with 1 and 17-32% raw.  A change to the
package moves the metrics in full, since the factor depends only on the
probe, which does not use the package.  The probes take about 2.5% of
the CPU from the sample, the same on every commit.  The raw seconds,
steal and speed factors are in the report.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, each the median over the samples:

* ``run_s``: from the first call into the package to a result that is
  written and checked;
* ``setup_s``: interpreter start, the numpy/scipy/package imports and
  building the inputs;
* ``cpu_s``: user plus system CPU time of the sample's process;
* ``peak_rss_mb``: peak resident memory of the sample's process.

With ``--trace 1`` traced and untraced samples alternate, and the JSON
holds the per-layer metrics listed in ``layers.json`` (medians over the
traced samples) and the tracing overhead, traced ``run_s`` minus
untraced ``run_s``.  A sample whose output check fails, or whose process
fails, counts in ``failed``; it does not stop the benchmark.  The full
report, with every sample, the quartiles, the layer shares and an
environment block, is written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads
from worker import steal_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0  # a run must end within 180 s, whatever --seconds says

PROBE_INTERVAL_S = 0.1  # sleep between probes while a sample runs
PROBE_LOOPS = 1000  # work in one probe
PROBE_REF_S = 0.0025  # CPU time of one probe at the reference speed
SPEED_EXPONENT = 0.9  # the workloads slow by about this power of the probe's slowdown
END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYERS = json.loads((HERE / "layers.json").read_text())


def probe():
    """Time a fixed piece of interpreter-bound work, exact rational sums
    kept in a dict, as in the symbolic layers; return ``(end, seconds)``,
    ``end`` in monotonic time and ``seconds`` the CPU time it took, which
    does not count the slices the sample runs in between."""
    start = time.thread_time()
    acc = {}
    for i in range(PROBE_LOOPS):
        k = i % 97
        acc[k] = acc.get(k, Fraction(0)) + Fraction(1, k + 1)
    return time.monotonic(), time.thread_time() - start


def _wait(proc, deadline):
    """Reap ``proc``, probing the CPU it runs on meanwhile; return
    ``(usage, probes)``, where ``usage`` is None if the process was killed
    at ``deadline`` (monotonic seconds)."""
    probes = []
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage, probes
        if time.monotonic() > deadline:
            proc.kill()
            _, status, _ = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, probes
        time.sleep(PROBE_INTERVAL_S)
        probes.append(probe())


def speed(probes, start, end):
    """Speed factor of the interval ``[start, end]``: ``PROBE_REF_S`` over
    the mean of the probes that ended in it, less the slowest and fastest
    tenth, to the power ``SPEED_EXPONENT``.  Intervals with fewer than five
    probes use all of the sample's."""
    times = sorted(t for at, t in probes if start <= at <= end)
    if len(times) < 5:
        times = sorted(t for _, t in probes) or [probe()[1]]
    cut = len(times) // 10
    return (PROBE_REF_S / statistics.fmean(times[cut : len(times) - cut])) ** SPEED_EXPONENT


def sample(workload, seed, trace, deadline, tiny=False, refs=workloads.REFS):
    """Run one sample in a fresh interpreter and measure it."""
    WORK.mkdir(exist_ok=True)
    result_path = WORK / f"{workload}-result.json"
    log_path = WORK / f"{workload}-stderr.log"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        workload,
        str(seed),
        str(result_path),
        str(int(trace)),
        str(int(tiny)),
        str(refs),
    ]
    with open(log_path, "w") as log:
        steal_spawn = steal_s()
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=log)
        try:
            usage, probes = _wait(proc, deadline)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    end = time.monotonic()
    out = {"trace": trace, "wall_s": end - spawn, "exit_code": proc.returncode, "probes": len(probes)}
    if usage is None:
        out["error"] = "killed at the time limit"
        return out
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0 or not result_path.exists():
        out["error"] = f"exit code {proc.returncode}: {log_path.read_text()[-2000:]}"
        return out
    result = json.loads(result_path.read_text())
    ready, done = result.pop("ready"), result.pop("done")
    steal_ready, steal_done = result.pop("steal_ready"), result.pop("steal_done")
    steal = {"setup_s": steal_ready - steal_spawn, "run_s": steal_done - steal_ready}
    factors = {
        "setup_s": speed(probes, spawn, ready),
        "run_s": speed(probes, ready, done),
        "cpu_s": speed(probes, spawn, end),
    }
    raw = {
        "setup_s": ready - spawn - steal["setup_s"],
        "run_s": result.pop("run_s") - steal["run_s"],
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    out.update(result)
    out.update({name: raw[name] * factors[name] for name in raw})
    out["raw"], out["speed"], out["steal"] = raw, factors, steal
    if "self_s" in out:
        out["self_s"] = {k: v * factors["run_s"] for k, v in out["self_s"].items()}
    return out


def layer_values(result):
    """Per-layer metric values of one traced sample."""
    counts, self_s = result["counts"], result["self_s"]
    values = {}
    for metric in LAYERS["metrics"]:
        name = metric["name"]
        layer, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = self_s.get(layer, 0.0)
        elif field == "useful_ratio":
            kept = counts.get("model.bphz_expansion.terms_out", 0)
            attempted = counts.get("gaussian.g_minus.terms_in", 0)
            values[name] = kept / attempted if attempted else 0.0
        elif not name.startswith("trace."):
            values[name] = counts.get(name, 0)
    return values


def layer_metrics(samples, report):
    """Per-layer metrics of a traced run: medians over the traced samples,
    plus the tracing overhead against the untraced ones."""
    traced = [s for s in samples if s["trace"] and "counts" in s]
    if not traced:
        return {}
    per_sample = [layer_values(s) for s in traced]
    medians = {name: statistics.median(v[name] for v in per_sample) for name in per_sample[0]}
    medians["trace.run_s"] = statistics.median(s["run_s"] for s in traced)
    untraced = [s["run_s"] for s in samples if not s["trace"] and "run_s" in s]
    if untraced:
        medians["trace.overhead_s"] = medians["trace.run_s"] - statistics.median(untraced)
    report["layer_shares"] = {
        name[: -len(".self_s")]: value / medians["trace.run_s"]
        for name, value in medians.items() if name.endswith(".self_s")
    }
    report["spans"] = str(WORK / f"{report['workload']}-spans.csv")
    units = {m["name"]: m["unit"] for m in LAYERS["metrics"]}
    return {name: {"value": value, "unit": units[name]} for name, value in medians.items()}


def summary(values):
    """Median, quartiles and count; the highest of p90/p99 that has at
    least ten samples beyond it."""
    out = {"median": statistics.median(values), "count": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def environment(samples):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    done = next((s for s in samples if "versions" in s), {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        **done.get("versions", {}),
        "input_seeds": done.get("input_seeds"),
    }


def run(workload, seed, seconds, trace, tiny=False, refs=workloads.REFS):
    """Take samples for ``seconds``; return ``(line, report)``, where
    ``line`` is the result object the benchmark prints last."""
    start = time.monotonic()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # samples inherit it
    samples = []
    while True:
        traced = trace and len(samples) % 2 == 0
        samples.append(sample(workload, seed, traced, start + DEADLINE_S, tiny, refs))
        elapsed = time.monotonic() - start
        next_ends = elapsed + statistics.median(s["wall_s"] for s in samples)
        need_untraced = trace and len(samples) == 1
        if next_ends > DEADLINE_S or (next_ends > seconds and not need_untraced):
            break
    failed = sum(1 for s in samples if s.get("error") is not None)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(samples),
        "attempted": len(samples),
        "failed": failed,
        "fail_rate": failed / len(samples),
        "samples": samples,
    }
    if trace:
        metrics = layer_metrics(samples, report)
    else:
        plain = [s for s in samples if not s["trace"]]
        report["summary"] = {
            name: summary(values) for name in END_TO_END
            if (values := [s[name] for s in plain if name in s])
        }
        metrics = {
            name: {"value": stats["median"], "unit": END_TO_END[name]}
            for name, stats in report["summary"].items()
        }
    report["metrics"] = metrics
    line = {"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}
    return line, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roughrenorm" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'roughrenorm'}", file=sys.stderr)
        return 2
    line, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(report, indent=2) + "\n")
    for s in report["samples"]:
        if s.get("error"):
            print(f"failed sample: {s['error']}")
    factors = [s["speed"]["run_s"] for s in report["samples"] if "speed" in s]
    if factors:
        print(f"speed factor of run_s: median {statistics.median(factors):.4f}")
    for key, stats in report.get("summary", {}).items():
        print(f"{key}: {stats}")
    print(f"environment: {json.dumps(report['environment'])}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
