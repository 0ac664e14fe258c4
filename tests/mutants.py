"""Mutation check: no check in the library can be lost without a test failing.

Each mutant is a named text edit (file, old, new) to one file under
``src/spinchar``, with the tests that must fail on it. Every mutant is
applied to a fresh temporary copy of ``src/`` and ``tests/`` (and
``pyproject.toml``, for pytest's settings), and only its tests run there.
The script exits 1 when a mutant survives, when its ``old`` text does not
occur exactly once in its file (so the list follows the code), or when the
tests fail on the unmutated copy. Standard library only; pytest runs in a
subprocess. pytest does not collect this file.

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    file: str  # under src/spinchar
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant("numerator floor 2 -> 4", "charring.py",
           "    return _binomial_product(rs, factors, term_budget, floor=2, seed=seed)",
           "    return _binomial_product(rs, factors, term_budget, floor=4, seed=seed)",
           ("tests/test_spinmod.py::test_spin0_decomposition_matches_the_decomposed_product",)),
    Mutant("merged root binomial read as e^v + e^{-v}", "charring.py",
           "            m, s = taken, -1\n",
           "            m, s = taken, 1\n",
           ("tests/test_properties.py::test_merged_binomial_products_match_their_expansion",)),
    Mutant("merge chain without doubling", "charring.py",
           "labels, half = tuple(map(add, labels, labels)), tuple(map(add, half, half))",
           "labels, half = labels, half",
           ("tests/test_properties.py::test_merged_binomial_products_match_their_expansion",)),
    Mutant("half-lattice mirror parity ignored", "charring.py",
           "out[mirror - b] = out.get(mirror - b, 0) + parity * c",
           "out[mirror - b] = out.get(mirror - b, 0) + c",
           ("tests/test_properties.py::test_half_lattice_products_match_the_full_expansion",)),
    Mutant("half-lattice mirror misses zero", "charring.py",
           "                    if b <= base:\n",
           "                    if b < base:\n",
           ("tests/test_properties.py::test_half_lattice_products_match_the_full_expansion",)),
    Mutant("half-lattice zero state counted twice", "charring.py",
           "                zero = terms.pop(base, 0)\n",
           "                zero = terms.get(base, 0)\n",
           ("tests/test_properties.py::test_half_lattice_products_match_the_full_expansion",)),
    Mutant("half-lattice budget counts the held states", "charring.py",
           "support = 2 * len(terms) - (base in terms) if half_only else len(terms)",
           "support = len(terms)",
           ("tests/test_properties.py::test_half_lattice_products_match_the_full_expansion",)),
    Mutant("binomials taken above zero lose their sign", "charring.py",
           "terms[base] = prod(s ** m for _, h, m, s in items if h[::-1] < (0,) * dim)",
           "terms[base] = 1",
           ("tests/test_properties.py::test_half_lattice_products_match_the_full_expansion",)),
    Mutant("orbit-size check dropped", "weyl.py",
           "    if len(points) != required:\n",
           "    if False:\n",
           ("tests/test_charring.py::test_an_orbit_walk_short_of_w_is_a_consistency_failure",)),
    Mutant("twisted sign read as det", "weyl.py",
           "roots = rs.positive_keys if twist is None else twist.system.positive_keys",
           "roots = rs.positive_keys",
           ("tests/test_properties.py::test_orbit_signs_are_det_and_the_cunning_parity",)),
    Mutant("labels not halved", "charring.py",
           "labels.append(tuple([p // 2 for p in twice]))",
           "labels.append(tuple(twice))",
           ("tests/test_properties.py::test_decomposition_records_match_the_weight_path",)),
    Mutant("dimension divisor dropped", "charring.py",
           "dims.append(prod(_dot(k, f) for f in forms) // heights)",
           "dims.append(prod(_dot(k, f) for f in forms))",
           ("tests/test_properties.py::test_decomposition_records_match_the_weight_path",)),
    Mutant("non-integral summand check dropped", "charring.py",
           "        if m < 0 or any(p % 2 for p in twice):",
           "        if m < 0:",
           ("tests/test_spinmod.py::test_spin0_decomposition_refuses_a_non_integral_summand",)),
    Mutant("negative multiplicity check dropped", "charring.py",
           "        if m < 0 or any(p % 2 for p in twice):",
           "        if any(p % 2 for p in twice):",
           ("tests/test_charring.py::test_a_negative_summand_is_named",)),
    Mutant("decomposition fill check dropped", "charring.py",
           "    if dec.total_dimension() != dimension:",
           "    if False:",
           ("tests/test_cli.py::test_a_dropped_floor_2_term_exits_1",)),
    Mutant("poincare mirror check dropped", "charring.py",
           "if not any(total) and coeffs != coeffs[::-1]:",
           "if False:",
           ("tests/test_charring.py::"
            "test_an_unmirrored_poincare_polynomial_is_a_consistency_failure",)),
    Mutant("coset repeat check dropped", "gradings.py",
           '        if lam in lams:\n'
           '            raise ConsistencyError(f"coset weight {lam} repeats")\n',
           "",
           ("tests/test_gradings.py::"
            "test_a_repeated_coset_representative_is_a_consistency_failure",)),
    Mutant("typing ignores the given order", "rootsys.py",
           "        if _standard_cartan(*t) == given:\n",
           "        if False:\n",
           ("tests/test_rootsys.py::test_a_given_order_is_read_in_a_type_it_numbers",)),
    Mutant("numbering ignores the stored ordering", "rootsys.py",
           "for pos, node in enumerate(order, start=1):",
           "for pos, node in enumerate(sorted(order), start=1):",
           ("tests/test_rootsys.py::test_a_permuted_f4_basis_is_numbered_as_built",)),
    Mutant("-w0 read as the identity", "rootsys.py",
           "        return tuple(top.index(i + 1) for i in range(self.rank))",
           "        return tuple(range(self.rank))",
           ("tests/test_spinmod.py::test_classify_filters",)),
    Mutant("self-duality ignores the part off the root span", "spinmod.py",
           "            and not rs.off_span(key))",
           "            and True)",
           ("tests/test_spinmod.py::test_classify_matches_the_oracle_off_the_root_span",)),
    Mutant("off-span part read as zero", "rootsys.py",
           "        return any(_dot(r, key) for r in self.off_span_rows)",
           "        return False",
           ("tests/test_spinmod.py::test_classify_matches_the_oracle_off_the_root_span",)),
    Mutant("zero-weight filter dropped", "spinmod.py",
           "    if any(_dot(row, labels) % rs.lattice_denom for row in rs.lattice_rows):",
           "    if False:",
           ("tests/test_spinmod.py::test_classify_filters",)),
    Mutant("orbit words appended", "rootsys.py",
           "orbit[v] = w = (i,) + word",
           "orbit[v] = w = word + (i,)",
           ("tests/test_properties.py::test_key_group_operations_match_matrices",)),
    Mutant("to_dominant letters reversed", "rootsys.py",
           "                return tuple(labels), key, letters",
           "                return tuple(labels), key, letters[::-1]",
           ("tests/test_properties.py::test_to_dominant_matches_dominant_representative",)),
    Mutant("walk without rescaling", "rootsys.py",
           "            if g > 1:\n                key = tuple(g * x for x in key)",
           "            if False:\n                key = tuple(g * x for x in key)",
           ("tests/test_properties.py::test_walk_matches_fraction_reflections",)),
    Mutant("descent letters lose their sign", "charring.py",
           "                                      -1 if len(letters) % 2 else 1))",
           "                                      1))",
           ("tests/test_charring.py::test_alternating_sum_on_and_off_the_dominant_chamber",)),
    Mutant("reduced Spin dimension check dropped", "spinmod.py",
           "    if ch.dimension() != expected:",
           "    if False:",
           ("tests/test_spinmod.py::test_reduced_spin_dimension_check_is_a_consistency_error",)),
    Mutant("exterior algebra check dropped", "spinmod.py",
           "    if ext != square:",
           "    if False:",
           ("tests/test_spinmod.py::test_exterior_algebra_check_is_a_consistency_error",)),
    Mutant("chamber witness check dropped", "spinmod.py",
           "            if any(_dot(r, witness) <= 0 for r in rows):",
           "            if False:",
           ("tests/test_spinmod.py::"
            "test_rays_flipped_in_the_lineality_step_lose_the_witness",)),
    Mutant("double description without the adjacency test", "spinmod.py",
           "            if sum(common & m == common for m in masks) == 2:",
           "            if True:",
           ("tests/test_spinmod.py::test_the_split_makes_a_pinned_number_of_rays",)),
    Mutant("extreme weight certificate dropped", "spinmod.py",
           "        if m != 1:",
           "        if False:",
           ("tests/test_spinmod.py::"
            "test_extreme_weights_are_certified_against_the_decomposition",)),
    Mutant("Weyl invariance check dropped", "charring.py",
           "            if ch.terms.get(tuple(x - p * y for x, y in zip(k, a)), 0) != v:",
           "            if False:",
           ("tests/test_charring.py::test_invariant_poincare_refuses_a_dropped_weight",)),
]


def _copy(dest: Path):
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)


def _apply(tree: Path, m: Mutant):
    """Apply a mutant in a copy; an error string when its old text does not
    occur exactly once."""
    path = tree / "src" / "spinchar" / m.file
    text = path.read_text()
    count = text.count(m.old)
    if count != 1:
        return f"old text occurs {count} times in {m.file}"
    path.write_text(text.replace(m.old, m.new))
    return None


def _run(m: Mutant):
    """(name, verdict, seconds, detail); killed means pytest reported a
    failing test, exit code 1."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="spinchar-mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        error = _apply(tree, m)
        if error:
            return m.name, "stale", 0.0, error
        proc = _pytest(tree, m.tests)
    seconds = time.perf_counter() - start
    if proc.returncode == 1:
        return m.name, "killed", seconds, ""
    verdict = "survived" if proc.returncode == 0 else "error"
    return m.name, verdict, seconds, proc.stdout[-2000:] + proc.stderr[-2000:]


def main() -> int:
    start = time.perf_counter()
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="spinchar-mutant-") as tmp:
        _copy(Path(tmp))
        proc = _pytest(Path(tmp), tests)
    if proc.returncode != 0:
        print("the killing tests fail on the unmutated tree:\n" + proc.stdout[-4000:]
              + proc.stderr[-2000:])
        return 1
    bad = 0
    with ThreadPoolExecutor(WORKERS) as pool:
        for name, verdict, seconds, detail in pool.map(_run, MUTANTS):
            print(f"{verdict:8} {seconds:5.1f} s  {name}")
            if verdict != "killed":
                bad += 1
                print(detail)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
