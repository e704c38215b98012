"""Mutation catalog for the certificate path and the walks it rests on
(De Morgan normalization, the clopen complement, the locate walk, the
sampler kernel and a name estimate's average, the decoration audit,
step-function arithmetic, the interleave of two names, the DSL scanner
and parser, evaluation maps, the dyadic order, and the refutations of
diagonal limits, recovered names and regularity approximations), and its
runner.

Each mutant names a file of the repository, an exact text that occurs once
in it, the text that replaces it, and the tests that must fail once it is
applied.  A mutant that leaves all of its tests passing survives: the tests
cannot tell that code from the real one.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # only these

Each mutant is applied to a fresh temporary copy of src/, tests/ and
pyproject.toml, and its tests run there with pytest under a timeout.  The
runner prints one line per mutant and exits 1 if any mutant survives, or if
its tests could not run (collection or usage error, or the timeout).  The
tier-1 suite checks only that every old text occurs exactly once.
Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_M = "tests/test_measure.py::"
_ONE_PASS = _M + "test_one_pass_gives_the_verdict_and_test_of_the_loops"
_CLOSURES = _M + "test_level_unions_stage_as_the_closure_oracle"

MUTANTS = (
    Mutant("max-min-swapped", "src/cantor_measure/stepfn.py",
           "return self._apply(other, max)\n\n"
           "    def min_with(self, other: \"StepFunction\") -> \"StepFunction\":\n"
           "        return self._apply(other, min)",
           "return self._apply(other, min)\n\n"
           "    def min_with(self, other: \"StepFunction\") -> \"StepFunction\":\n"
           "        return self._apply(other, max)",
           (_M + "test_clopen_fold_matches_decomposition_root",
            "tests/test_stepfn.py::test_binary_ops_match_aligned_tables")),
    Mutant("names-equal-exact-always-equal", "src/cantor_measure/names.py",
           'NamesEqualResult(a == b, "exact")', 'NamesEqualResult(True, "exact")',
           (_M + "test_verify_rejects_root_off_by_one_deep_cell", _ONE_PASS)),
    Mutant("pass-limits-always-equal", "src/cantor_measure/measure.py",
           "else name.exact_limit() == law.exact_limit()))",
           "else True))",
           (_M + "test_verify_rejects_root_minus_depth_24_cell_at_default_bound",
            "tests/test_cli.py::test_failed_law_exits_4_before_staging", _ONE_PASS)),
    Mutant("pass-skips-leaf-law", "src/cantor_measure/measure.py",
           "        for (addr, node), name in zip(walk, names):\n",
           "        for (addr, node), name in zip(walk, names):\n            if isinstance(node, Leaf):\n"
           "                continue\n",
           (_M + "test_decomposition_laws_verify_and_detect_tampering", _ONE_PASS)),
    Mutant("agreement-height-one-low", "src/cantor_measure/names.py",
           "for t in (t1, t2, max(t1, t2, 2) - 2)])",
           "for t in (t1, t2, max(t1, t2, 2) - 2)]) - 1",
           ("tests/test_names.py::test_agreement_height_is_the_height_of_the_agreement_test",
            _CLOSURES)),
    Mutant("combined-height-one-low", "src/cantor_measure/gdelta.py",
           "h - n - 1 for n, h in enumerate(heights)",
           "h - n - 2 for n, h in enumerate(heights)",
           (_ONE_PASS, _CLOSURES)),
    Mutant("convergence-height-one-low", "src/cantor_measure/names.py",
           "max(tail // 2 - 1, 0)\n", "max(tail // 2 - 2, 0)\n",
           (_CLOSURES,)),
    Mutant("lazy-test-drops-agreement-parts", "src/cantor_measure/measure.py",
           "pairs] + [\n            agreement_test(name, law) for name, law, _ in pairs], label",
           "pairs], label",
           (_M + "test_wrong_exact_root_breaks_its_assembled_test", _ONE_PASS)),
    Mutant("char-partition-splits-a-1-cell", "src/cantor_measure/space.py",
           "        if lo == hi or gens[lo] == prefix:\n",
           "        if lo < hi and gens[lo] == prefix and len(prefix) < 3:\n"
           "            cells += [prefix + \"0\", prefix + \"1\"]\n"
           "            inside += [1, 1]\n"
           "        elif lo == hi or gens[lo] == prefix:\n",
           ("tests/test_stepfn.py::test_from_char_is_canonical_as_built",
            "tests/test_stepfn.py::test_from_char_matches_per_cell_reference")),
    Mutant("demorgan-keeps-unions", "src/cantor_measure/codes.py",
           "cls = InterNode if cls is UnionNode else UnionNode", "cls = UnionNode",
           ("tests/test_codes.py::test_normalize_demorgan_preserves_denotation",)),
    Mutant("demorgan-keeps-leaf-label", "src/cantor_measure/codes.py",
           "label = clopen_complement(node.label) if flip else node.label", "label = node.label",
           ("tests/test_codes.py::test_normalize_demorgan_preserves_denotation",)),
    Mutant("complement-keeps-one-cells", "src/cantor_measure/space.py",
           "if not v))", "if v))",
           ("tests/test_space.py::test_intersection_and_complement_match_references",)),
    Mutant("interleave-tail-one-early", "src/cantor_measure/names.py",
           "max(n1.tail, n2.tail, 2) - 2", "max(n1.tail, n2.tail, 3) - 3",
           ("tests/test_names.py::test_interleave_tail_is_where_its_rule_stops_changing",
            _CLOSURES)),
    Mutant("locate-skips-a-bit", "src/cantor_measure/space.py",
           "x.bits(k, min(k + n, len(s))) == s[k:k + n]",
           "x.bits(k + 1, min(k + n, len(s))) == s[k + 1:k + n]",
           ("tests/test_space.py::test_locate_matches_prefix_oracle",
            "tests/test_space.py::test_locate_finds_the_longest_prefix_in_any_sorted_list")),
    Mutant("sampler-stride-fixed", "src/cantor_measure/space.py",
           "            step += golden\n", "",
           ("tests/test_sampling.py::test_kernel_leaf_is_the_cell_of_the_column",
            "tests/test_sampling.py::test_mc_integral_matches_per_trial_loop")),
    Mutant("audit-clause-check-off", "src/cantor_measure/decoration.py",
           "        if mask != clause:\n", "        if False:\n",
           ("tests/test_decoration.py::test_clause_clash_is_an_internal_error",
            "tests/test_cli.py::test_decorate_audit_clause_clash_exits_4")),
    Mutant("law-kind-swapped", "src/cantor_measure/measure.py",
           "union = isinstance(node, UnionNode)", "union = not isinstance(node, UnionNode)",
           (_M + "test_clopen_fold_matches_decomposition_root",
            _M + "test_decomposition_laws_verify_and_detect_tampering")),
    Mutant("apply-advance-rule", "src/cantor_measure/stepfn.py",
           'i += "0" not in q[len(p):]', 'i += "1" not in q[len(p):]',
           ("tests/test_stepfn.py::test_deep_binary_ops_match_refinement_oracle",)),
    Mutant("bigunion-no-rewind", "src/cantor_measure/dsl.py",
           "self.pos = mark", "self.pos = self.pos",
           ("tests/test_dsl.py::test_bigunion_inclusive_bounds",
            "tests/test_dsl.py::test_bigunion_nested_shadowing",
            "tests/test_dsl.py::test_parser_agrees_with_recursive_descent")),
    Mutant("scanner-skips-unicode-blanks", "src/cantor_measure/dsl.py",
           r"[^ \t\r\n]", r"\S",
           ("tests/test_dsl.py::test_parser_agrees_with_recursive_descent",)),
    Mutant("word-may-not-start-with-underscore", "src/cantor_measure/dsl.py",
           r"\w+", r"[^\W\d_]\w*",
           ("tests/test_dsl.py::test_parser_agrees_with_recursive_descent",)),
    Mutant("word-has-no-digit", "src/cantor_measure/dsl.py",
           r"\w+", r"[^\W\d]+",
           ("tests/test_dsl.py::test_parser_agrees_with_recursive_descent",)),
    Mutant("abs-diff-signed", "src/cantor_measure/stepfn.py",
           "return abs(a - b)", "return a - b",
           ("tests/test_stepfn.py::test_arithmetic_matches_fractions",
            "tests/test_stepfn.py::test_binary_ops_match_aligned_tables",
            "tests/test_names.py::test_capture_sets_match_staged_bad_sets",
            "tests/test_names.py::test_value_at_names_a_signed_delta_as_a_certificate_error")),
    Mutant("reloc-copy-not-counted", "src/cantor_measure/dsl.py",
           "self.count_nodes(nodes)", "self.count_nodes(0)",
           ("tests/test_dsl.py::test_reloc_copy_counted_against_the_node_limit",)),
    Mutant("reloc-bits-index-only", "src/cantor_measure/dsl.py",
           "(arg + 1) * gens", "arg * gens",
           ("tests/test_dsl.py::test_code_bits_counted_as_built",)),
    Mutant("name-average-over-all-trials", "src/cantor_measure/sampling.py",
           "total.div_floor(trials - captured, AVERAGE_BITS)", "total.div_floor(trials, AVERAGE_BITS)",
           ("tests/test_sampling.py::test_name_estimate_counts_captures_and_keeps_negative_values",
            "tests/test_sampling.py::test_name_estimate_matches_per_trial_value_at")),
    Mutant("interleave-parity-swapped", "src/cantor_measure/names.py",
           "(n2 if j % 2 else n1)", "(n1 if j % 2 else n2)",
           ("tests/test_names.py::test_interleave_exposes_raw_sequence",)),
    Mutant("clause-empty-union-is-1", "src/cantor_measure/codes.py",
           "max(vals, default=0)", "max(vals, default=1)",
           ("tests/test_codes.py::test_childless_nodes_evaluate_to_their_empty_clauses",)),
    Mutant("eval-map-missing-address-unflagged", "src/cantor_measure/codes.py",
           "if addr not in emap or None in vals", "if None in vals",
           ("tests/test_codes.py::test_eval_map_violations_flags_missing_addresses",)),
    Mutant("eval-map-missing-child-unflagged", "src/cantor_measure/codes.py",
           "emap or None in vals or emap", "emap or emap",
           ("tests/test_codes.py::test_eval_map_violations_flags_missing_addresses",)),
    Mutant("dyadic-lt-or-equal", "src/cantor_measure/dyadic.py",
           "< other.num <<", "<= other.num <<",
           ("tests/test_dyadic.py::test_order_matches_fractions",)),
    Mutant("law-childless-off", "src/cantor_measure/measure.py",
           "    if not kids:\n", "    if False:\n",
           (_M + "test_childless_nodes_verify_by_their_constant_laws",
            "tests/test_cli.py::test_decompose_an_empty_bigunion")),
    Mutant("recovery-law-unchecked", "src/cantor_measure/measure.py",
           "    if not res:\n        raise CertificateError(\n            f\"recovered",
           "    if False:\n        raise CertificateError(\n            f\"recovered",
           (_M + "test_membership_recovery_refutes_names_that_break_a_law",)),
    Mutant("overlap-unchecked", "src/cantor_measure/measure.py",
           "            if got > bound:\n", "            if False:\n",
           (_M + "test_regularity_refutes_a_name_that_is_not_a_characteristic_function",)),
    Mutant("diag-adjacent-unchecked", "src/cantor_measure/names.py",
           "        if got > allowed:\n", "        if False:\n",
           ("tests/test_names.py::test_diagonal_name_refutes_adjacent_terms_of_an_uncertified_name",)),
    Mutant("diag-limit-claim-unchecked", "src/cantor_measure/names.py",
           "            if bad is not None:\n                raise CertificateError(\n"
           "                    f\"diag: |f^{i} - lim g",
           "            if False:\n                raise CertificateError(\n"
           "                    f\"diag: |f^{i} - lim g",
           ("tests/test_names.py::test_diagonal_name_refutes_a_false_limit_claim",)),
    Mutant("limit-first-unknown-tail-uncorrected", "src/cantor_measure/names.py",
           "lower = lower - Dyadic.pow2(-a + 1)", "lower = lower",
           ("tests/test_names.py::test_limit_distance_refuted_allows_for_unknown_tails",)),
    Mutant("limit-second-unknown-tail-uncorrected", "src/cantor_measure/names.py",
           "lower = lower - Dyadic.pow2(-b + 1)", "lower = lower",
           ("tests/test_names.py::test_limit_distance_refuted_allows_for_unknown_tails",)),
)


def apply(root: str, m: Mutant) -> None:
    """Replace m's old text, which must occur exactly once, under root."""
    path = os.path.join(root, m.path)
    with open(path) as fh:
        text = fh.read()
    if text.count(m.old) != 1:
        raise ValueError(f"{m.name}: old text occurs {text.count(m.old)} times in {m.path}")
    with open(path, "w") as fh:
        fh.write(text.replace(m.old, m.new))


def run(m: Mutant) -> str:
    """'killed', 'survived', or why the mutant's tests did not run."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        apply(tmp, m)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            p = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                *m.tests], cwd=tmp, env=env, capture_output=True, text=True,
                               timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timeout after {TIMEOUT_S} s"
    # pytest exits 1 when tests ran and some failed; 2-5 mean they did not run
    return {0: "survived", 1: "killed"}.get(p.returncode, f"pytest exit {p.returncode}")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for m in chosen:
        start = time.perf_counter()
        outcome = run(m)
        bad += outcome != "killed"
        print(f"{m.name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
