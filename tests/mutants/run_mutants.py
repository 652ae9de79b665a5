"""A mutation check of the test suite: each mutant is a one-line break of
the package, and the tests listed with it must catch it.

    python tests/mutants/run_mutants.py [N ...]

For each mutant (all of them, or those numbered N) the script copies
``src``, ``tests`` and ``pyproject.toml`` to a temporary directory,
replaces the mutant's old text with its new text there, and runs only the
mutant's tests, in a subprocess under a timeout.  A mutant is

* killed when at least one of its tests fails, or the run times out;
* survived when all of its tests pass;
* stale when its old text does not occur exactly once in its file;
* an error when pytest cannot run its tests (exit code 2 to 5).

Before the mutants, the listed tests are run once on the unchanged copy:
a mutant counts as killed only by tests that pass without it.  The
script prints one line per mutant and exits 1 unless every mutant is
killed.  Hypothesis runs with a fixed seed, so the results repeat.
pytest does not collect this file, since its name does not start with
``test_``.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path("src/roughrenorm")
TIMEOUT_S = 120

_TREES = "tests/test_trees.py::"
_COALGEBRA = "tests/test_coalgebra.py::"
_CLI = "tests/test_cli.py::"
_MODEL = "tests/test_model.py::"
_ROUGHSIM = "tests/test_roughsim.py::"
_GAUSSIAN = "tests/test_gaussian.py::"
_QUADPACK = "tests/test_quadpack.py::"

# (file under src/roughrenorm, exact old text, new text, test ids expected to fail)
MUTANTS = [
    # the extraction DP
    (
        "coalgebra.py",
        "        return min(riders, key=_branch_key)\n",
        "        return max(riders, key=_branch_key)\n",
        # the DP's oracles read the package's finishers, so only outputs pinned
        # elsewhere see a finisher break
        [
            _COALGEBRA + "test_the_smallest_competing_rider_stays_at_the_remainders_root",
            "tests/test_golden.py::test_symbolic_commands_match_golden",
        ],
    ),
    (
        "coalgebra.py",
        "weight * comb(left, n) * w**n,",
        "weight * (comb(left, n) + 1) * w**n,",
        [
            _COALGEBRA + "test_plain_contraction_is_coassociative_on_basis",
            _TREES + "test_grouped_extraction_equals_reference_on_basis",
        ],
    ),
    (
        "coalgebra.py",
        "            kept, stay, n = (stay,), None, n - 1\n",
        "            kept, stay, n = (), None, n - 1\n",
        [_COALGEBRA + "test_coproduct_of_product_symbol", _COALGEBRA + "test_coproduct_counit"],
    ),
    # the closed form of the even table: odd root parts kept and even ones dropped
    (
        "coalgebra.py",
        "moved[-1][0].is_noise and len(moved) % 2 == 0 and",
        "moved[-1][0].is_noise and len(moved) % 2 == 1 and",
        [
            _COALGEBRA + "test_even_table_is_the_full_table_less_odd_left_legs",
            _COALGEBRA + "test_even_table_of_xi_times_a_power_has_one_term_per_odd_count",
        ],
    ),
    # a root part of degree 0 kept: only a spec that gives one degree 0 sees it
    (
        "coalgebra.py",
        "spec.degree_tree(Tree(moved)) < 0",
        "spec.degree_tree(Tree(moved)) <= 0",
        [
            _COALGEBRA + "test_even_table_equals_the_screened_sorted_tuple_dp_on_basis[zero-degree]",
            _COALGEBRA + "test_a_degree_zero_root_part_is_left_out",
        ],
    ),
    # the same terms in another order: only the tests that compare the order see it
    (
        "coalgebra.py",
        "    for kept, moved, b in reversed(list(splits)):\n",
        "    for kept, moved, b in splits:\n",
        [
            _COALGEBRA + "test_even_table_equals_the_screened_sorted_tuple_dp_on_basis",
            _COALGEBRA + "test_even_table_equals_the_screened_sorted_tuple_dp_on_symbols_with_runs",
        ],
    ),
    (
        "coalgebra.py",
        "forest_of(Tree(kept))), b))",
        "forest_of(Tree(kept))), b + 1))",
        [
            _COALGEBRA + "test_even_table_is_the_full_table_less_odd_left_legs",
            _COALGEBRA + "test_even_table_of_xi_times_a_power_has_one_term_per_odd_count",
        ],
    ),
    # integer coefficients: a float of equal value leaks, and compares equal
    (
        "coalgebra.py",
        "forest_of(Tree(kept))), b))",
        "forest_of(Tree(kept))), b / 1))",
        [_COALGEBRA + "test_integral_coefficients_are_ints_on_whole_bases"],
    ),
    (
        "coalgebra.py",
        "        pairs[key] = pairs.get(key, 0) + m\n",
        "        pairs[key] = pairs.get(key, 0) + m * 1.0\n",
        [_COALGEBRA + "test_integral_coefficients_are_ints_on_whole_bases"],
    ),
    (
        "coalgebra.py",
        "    return aoff, Tree((et, aroot) for et, aroot, _ in chosen), Tree(rem + riders)\n",
        "    return aoff, Tree((et, aroot) for et, aroot, _ in chosen), Tree(rem)\n",
        [_TREES + "test_extractions_match_brute_force"],
    ),
    # the run split of the positive coproduct and the transport
    (
        "trees.py",
        "runs.append([((factor,) * k, (factor,) * (m - k), comb(m, k)) for k in stays])",
        "runs.append([((factor,) * k, (factor,) * (m - k), comb(m, k) + 1) for k in stays])",
        [
            _MODEL + "test_delta_plus_equals_the_product_of_two_term_sums_on_the_basis",
            _MODEL + "test_gamma_direct_equals_the_product_of_two_term_sums_on_the_basis",
        ],
    ),
    # input bounds
    (
        "trees.py",
        "_MAX_POWER = 999",
        "_MAX_POWER = 1000",
        [_CLI + "test_bad_input_exits_2_with_one_line_error"],
    ),
    (
        "structure.py",
        "    if not 1 <= d <= _MAX_CHANNELS:\n",
        "    if not 0 <= d <= _MAX_CHANNELS:\n",
        [_CLI + "test_bad_input_exits_2_with_one_line_error"],
    ),
    (
        "roughsim.py",
        "            if not e <= self.T / 2:\n",
        "            if not e <= self.T:\n",
        [_CLI + "test_bad_input_exits_2_with_one_line_error"],
    ),
    (
        "trees.py",
        "        if index < 1 or d is not None and index > d:\n",
        "        if index < 1 or d is not None and index > d + 1:\n",
        # the exit-code tests miss it: the tree's family check rejects Xi_3 too
        [_TREES + "test_parser_rejects_bad_index"],
    ),
    (
        "cli.py",
        "    if args.nmax > MAX_TRUNCATION:\n",
        "    if args.nmax > MAX_TRUNCATION + 1:\n",
        [_CLI + "test_bad_input_exits_2_with_one_line_error"],
    ),
    # the Gaussian moment table: pairings past the fourth partner dropped
    (
        "gaussian.py",
        "        for k, v in enumerate(rest):\n",
        "        for k, v in enumerate(rest[:3]):\n",
        [_GAUSSIAN + "test_moments_equal_the_ring_generic_recursion"],
    ),
    # a table's size recorded only when it is built, not on a cache hit
    (
        "gaussian.py",
        "        hit = _G_ANTIPODE_CACHE[key] = (expansion, len(table))\n    _record_size(hit[1])\n",
        "        hit = _G_ANTIPODE_CACHE[key] = (expansion, len(table))\n        _record_size(hit[1])\n",
        [_CLI + "test_check_report_same_from_warm_and_cold_caches"],
    ),
    # numeric model: monomials, transport and batches
    (
        "model.py",
        "                slots[k] = 1.0\n",
        "                slots[k] = 0.0\n",
        [
            _MODEL + "test_eval_pi_equals_the_tree_walk_on_the_basis",
            _MODEL + "test_monomials_equal_the_naive_product_row_by_row",
        ],
    ),
    (
        "model.py",
        "np.multiply(slots[prefix], powers[name][p - 1], out=slots[k])",
        "np.multiply(slots[prefix - 1], powers[name][p - 1], out=slots[k])",
        [
            _MODEL + "test_eval_pi_equals_the_tree_walk_on_the_basis",
            _MODEL + "test_monomials_equal_the_naive_product_row_by_row",
        ],
    ),
    (
        "model.py",
        "            while factors and factors[:-1] not in slots:\n",
        "            if factors and factors[:-1] not in slots:\n",
        # only the oracle test's example of a monomial whose prefixes are not listed
        [_MODEL + "test_monomials_equal_the_naive_product_row_by_row"],
    ),
    (
        "model.py",
        "    return max(1, _BATCH_BYTES // (8 * symbols * (3 * points + 4 * symbols)))\n",
        "    return max(0, _BATCH_BYTES // (8 * symbols * (3 * points + 4 * symbols)))\n",
        [_MODEL + "test_model_axioms_do_not_depend_on_the_batch_size"],
    ),
    (
        "model.py",
        "            (k * len(basis) + index[target], float(factor), incs)\n",
        "            (index[target] * len(basis) + k, float(factor), incs)\n",
        [_MODEL + "test_numeric_transport_matches_symbolic"],
    ),
    # the QAGS port: a rule's weight, its summation order, libm's pow, the error ordering
    (
        "quadpack.py",
        "    0.1494455540029169,  # the centre's\n",
        "    0.1494455540029168,  # the centre's\n",
        [_QUADPACK + "test_port_equals_scipy_quad_on_the_battery[gauss]"],
    ),
    (
        "quadpack.py",
        "    resk, resabs = np.cumsum(terms * _WGK_K, axis=2)[:, :, -1]\n",
        "    resk, resabs = np.sum(terms * _WGK_K, axis=2)\n",
        [_QUADPACK + "test_port_equals_scipy_quad_on_smooth_integrands"],
    ),
    (
        "quadpack.py",
        "    err[small] *= [x**1.5 for x in q[small].tolist()]\n",
        "    err[small] *= np.power(q[small], 1.5)\n",
        [_QUADPACK + "test_port_equals_scipy_quad_on_smooth_integrands"],
    ),
    # dqpsrt moving the bisected interval up one rank short of its place; the
    # swap of its "errmax <= elist[isucc]" for "<" only reorders equal errors,
    # and no integrand tried tells the two apart
    (
        "quadpack.py",
        "        for _ in range(nrmax - 1):\n",
        "        for _ in range(nrmax - 2):\n",
        [_QUADPACK + "test_port_equals_scipy_quad_on_the_battery[cos 50x]"],
    ),
    # the lockstep driver skipping an integral at each group's end
    (
        "quadpack.py",
        "        for start in range(0, len(asks), _GROUP):\n",
        "        for start in range(0, len(asks), _GROUP + 1):\n",
        [_QUADPACK + "test_a_batch_equals_its_integrals_one_at_a_time[2]"],
    ),
    # simulation
    # c_eps's autocorrelation reading another node's width, which one width
    # alone cannot show
    (
        "roughsim.py",
        "        at = at / norm / np.concatenate((e, e))\n",
        "        at = at / norm / np.concatenate((e, e[::-1]))\n",
        [_ROUGHSIM + "test_c_eps_of_widths_equals_each_widths_own"],
    ),
    (
        "roughsim.py",
        "        if m > 1:\n            fm = fm / math.factorial(m)\n",
        "        if m > 2:\n            fm = fm / math.factorial(m)\n",
        [_ROUGHSIM + "test_model_route_reads_f_off_the_full_grid"],
    ),
    (
        "roughsim.py",
        "        mn = np.minimum(t - a, v)\n",
        "        mn = np.maximum(t - a, v)\n",
        [_ROUGHSIM + "test_c_eps_timedep_before_the_mollification_width"],
    ),
    # the t < eps cross term taken where only t - b is positive: a wrong value,
    # not a rounding, so the scalar oracle sees it on any CPU
    (
        "roughsim.py",
        "        live = mn > 0.0\n",
        "        live = v > 0.0\n",
        [_ROUGHSIM + "test_c_eps_timedep_equals_dblquad_before_the_width"],
    ),
    (
        "roughsim.py",
        "    reach = max(halves.values()) + m_max\n",
        "    reach = max(halves.values()) + m_max - 1\n",
        [_ROUGHSIM + "test_windowed_probe_equals_full_length_smoothing"],
    ),
    (
        "roughsim.py",
        "            return out[:, start : start + n].reshape(lead + (n,))\n",
        "            return out[:, start + 1 : start + n + 1].reshape(lead + (n,))\n",
        # test_smoother_equals_fftconvolve fails too, but Hypothesis takes ~30 s to shrink
        [
            _ROUGHSIM + "test_hat_process_matches_plain_path_before_cutoff",
            _ROUGHSIM + "test_fbm_half_is_brownian",
        ],
    ),
    # a smoother call that reuses the last call's output buffer as its signal's
    # buffer without zeroing the padding those outputs wrote
    (
        "roughsim.py",
        "        padded[:, n:] = 0.0\n",
        "",
        [_ROUGHSIM + "test_smoother_reuses_its_buffers_across_calls"],
    ),
    # one set of smoothing buffers, or of chunk scratch, shared by every thread
    (
        "roughsim.py",
        "    local = threading.local()\n\n    def buffers(rows):\n",
        '    local = type("Shared", (), {})()\n\n    def buffers(rows):\n',
        [_ROUGHSIM + "test_smoother_shared_by_8_threads_keeps_each_threads_outputs"],
    ),
    (
        "roughsim.py",
        "    local = threading.local()\n\n    def one_chunk(i):\n",
        '    local = type("Shared", (), {})()\n\n    def one_chunk(i):\n',
        [_ROUGHSIM + "test_chunk_driver_arrays_are_each_threads_own"],
    ),
    # the chunk arrays made again on every chunk
    (
        "roughsim.py",
        '        if not hasattr(local, "arrays"):\n',
        "        if True:\n",
        [_ROUGHSIM + "test_chunk_driver_arrays_are_each_threads_own"],
    ),
]


def _copy(tmp):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tmp / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", tmp)


def _pytest(tmp, tests, timeout):
    """pytest's exit code and failed test ids, or None on a timeout."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(cmd, cwd=tmp, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    return done.returncode, failed, done.stdout.strip().splitlines()[-1:]


def _run(mutant, timeout):
    file, old, new, tests = mutant
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        path = tmp / PACKAGE / file
        text = path.read_text()
        path.write_text(text.replace(old, new))
        result = _pytest(tmp, tests, timeout)
    if result is None:
        return "killed", [f"timeout after {timeout} s"]
    code, failed, last = result
    if code == 0:
        return "survived", []
    if code == 1:
        return "killed", failed
    return "error", [f"pytest exit {code}", *last]


def main(argv):
    picked = [int(n) for n in argv] or range(1, len(MUTANTS) + 1)
    mutants = [(n, MUTANTS[n - 1]) for n in picked]
    outcomes = {}
    live = []
    for n, mutant in mutants:
        file, old, _, _ = mutant
        text = (ROOT / PACKAGE / file).read_text()
        if text.count(old) != 1:
            outcomes[n] = ("stale", [f"old text occurs {text.count(old)} times"])
        else:
            live.append((n, mutant))
    tests = sorted({t for _, (_, _, _, ids) in live for t in ids})
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _copy(tmp)
        base = _pytest(tmp, tests, TIMEOUT_S * 2)
    if base is None or base[0] != 0:
        print(f"the listed tests do not pass on the unchanged source: {base}")
        return 1
    for n, mutant in live:
        start = time.perf_counter()
        outcomes[n] = _run(mutant, TIMEOUT_S)
        file, old, new, _ = mutant
        line = (ROOT / PACKAGE / file).read_text().split(old)[0].count("\n") + 1
        status, detail = outcomes[n]
        print(f"#{n} {status} ({time.perf_counter() - start:.1f} s) {file}:{line}: "
              f"{old.strip()!r} -> {new.strip()!r}")
        for item in detail:
            print(f"    {item}")
    for n, (status, detail) in sorted(outcomes.items()):
        if status == "stale":
            print(f"#{n} stale: {detail[0]}")
    counts = {s: sum(o[0] == s for o in outcomes.values()) for s in ("killed", "survived", "stale", "error")}
    print(", ".join(f"{v} {k}" for k, v in counts.items()))
    return 0 if counts["killed"] == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
