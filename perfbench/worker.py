"""One benchmark sample in a fresh interpreter.

Started by ``run.py`` once per sample, so every sample pays the
interpreter start, the imports and the package's cold memo tables, as
every command-line call does:

    python3 perfbench/worker.py WORKLOAD SEED RESULT_JSON TRACE TINY REFS_DIR

It imports the package from ``src/`` of the checkout, builds the inputs,
notes the monotonic time at which set-up ended, runs and checks the
workload, and writes a JSON result.  With TRACE = 1 it first wraps the
package's layer functions in spans (see ``instrument``) and also writes
the spans to ``.perfbench/WORKLOAD-spans.csv``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def steal_s():
    """Seconds for which the host has run something else on the CPUs this
    process may use (the steal column of ``/proc/stat``); 0 where that
    is not readable."""
    cpus = {f"cpu{c}" for c in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat") as handle:
            ticks = sum(int(f[8]) for line in handle if (f := line.split())[0] in cpus)
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def instrument(tracer):
    """Wrap each layer function where its callers look the name up."""
    import numpy as np
    from roughrenorm import cli, coalgebra, gaussian, model, poly, roughsim, structure
    from roughrenorm.trees import FormalSum

    counts = tracer.counts
    covariances = {}

    def patch(layer, modules, attr, count=None):
        wrapped = tracer.span(layer, getattr(modules[0], attr), count)
        for module in modules:
            setattr(module, attr, wrapped)

    def terms_out(key):
        def count(args, result):
            counts[key] += len(result)

        return count

    def fft_bytes(args, result):
        # computed from array sizes, not measured traffic
        counts["roughsim.fft.bytes"] += (
            np.asarray(args[0]).nbytes + np.asarray(args[1]).nbytes + result.nbytes
        )

    def g_minus_terms(args, result):
        x, cov = args[0], args[1]
        counts["gaussian.g_minus.terms_in"] += len(x) if isinstance(x, FormalSum) else 1
        covariances[id(cov)] = cov

    # numerical layers; roughsim looks every name up on its module per call
    patch("roughsim.model_route", [roughsim], "_model_route")
    patch("roughsim.c_eps", [roughsim], "c_eps")
    patch("roughsim.mollify", [roughsim], "mollify")
    for attr in ("brownian_increments", "fbm_rl", "stationary_hat_process"):
        patch("roughsim.paths", [roughsim], attr)
    patch("roughsim.fft", [roughsim.signal], "fftconvolve", fft_bytes)
    quad = roughsim.integrate.quad

    def counting_quad(func, *args, **kwargs):
        if tracer.open["roughsim.c_eps"]:
            inner = func

            def func(*a):
                counts["roughsim.c_eps.integrand_calls"] += 1
                return inner(*a)

        return quad(func, *args, **kwargs)

    roughsim.integrate.quad = counting_quad
    patch("cli.outputs", [cli], "_write_csv")
    patch("cli.outputs", [cli], "_write_manifest")

    # symbolic layers; model, gaussian and cli import these by name
    patch(
        "coalgebra.twisted_antipode",
        [coalgebra, model, gaussian, cli],
        "twisted_antipode",
        terms_out("coalgebra.twisted_antipode.terms_out"),
    )
    patch("trees.mul_forests", [coalgebra], "mul_forests", terms_out("trees.mul_forests.terms_out"))
    patch(
        "coalgebra.delta_minus_ex",
        [coalgebra, model],
        "delta_minus_ex",
        terms_out("coalgebra.delta_minus_ex.terms_out"),
    )
    patch("gaussian.g_minus", [model, cli], "g_minus", g_minus_terms)
    patch(
        "model.bphz_expansion",
        [model],
        "bphz_expansion",
        terms_out("model.bphz_expansion.terms_out"),
    )
    structure.StructureSpec.degree_tree = tracer.counter(
        "structure.degree_tree.calls", structure.StructureSpec.degree_tree
    )

    # numeric transport
    patch("model.gamma_direct", [model], "gamma_direct")
    patch("model.eval_pi", [model], "eval_pi")
    poly.Poly.substitute = tracer.span("poly.substitute", poly.Poly.substitute)

    def finish():
        counts["coalgebra.cache_entries"] = len(coalgebra._REPAIRED_CACHE) + len(
            coalgebra._ANTIPODE_CACHE
        )
        counts["gaussian.moment_cache_entries"] = sum(
            len(cov._moment_cache) for cov in covariances.values()
        )

    return finish


def main(argv):
    workload, seed, result_path, trace, tiny, refs = argv
    seed, trace, tiny = int(seed), trace == "1", tiny == "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import roughrenorm

    if Path(roughrenorm.__file__).resolve().parent != src / "roughrenorm":
        raise SystemExit(f"imported roughrenorm from {roughrenorm.__file__}, not {src}")
    import workloads

    out_dir = ROOT / ".perfbench" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    seeds, run = workloads.prepare(workload, seed, tiny, out_dir, refs)
    tracer = finish = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        finish = instrument(tracer)
    steal_ready = steal_s()
    ready = time.monotonic()
    start = time.perf_counter()
    try:
        error = run()
    except Exception:
        error = traceback.format_exc()
    run_s = time.perf_counter() - start
    result = {
        "ready": ready,
        "done": time.monotonic(),
        "run_s": run_s,
        "steal_ready": steal_ready,
        "steal_done": steal_s(),
        "error": error,
        "input_seeds": seeds,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        finish()
        result["self_s"] = dict(tracer.self_s)
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.spans)
        tracer.write(ROOT / ".perfbench" / f"{workload}-spans.csv")
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
