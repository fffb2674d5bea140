#!/usr/bin/env python3
"""Unit tests for tools/lint_contract.py.

Three layers:
  * rule cases: a snippet that must trigger a rule and a clean or suppressed
    variant that must not, written into a temp tree shaped like the real
    repository (src/sim, src/util, tests/, ...) so the path-scoped
    allowlists are covered too;
  * unit tests for the frontend's lexer and type machinery;
  * the committed good/bad fixture mini-trees under fixtures/ast/ — each bad
    fixture must fail with exactly its rule id, each good fixture must be
    clean.

Run directly or through ctest.
"""

import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_contract  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "ast"


def run_fixture(name: str):
    return lint_contract.run(FIXTURES / name)


def rules_of(findings):
    return sorted({f.rule for f in findings})


class LintContractTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel: str, content: str) -> Path:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        return path

    def rules(self, findings):
        return rules_of(findings)

    def lint(self, paths=None):
        return lint_contract.run(self.root, paths)

    # --- raw-rand -------------------------------------------------------

    def test_rand_call_is_flagged(self):
        self.write("src/core/x.cpp", "int f() { return rand() % 3; }\n")
        self.assertEqual(self.rules(self.lint()), ["raw-rand"])

    def test_srand_is_flagged(self):
        self.write("src/core/x.cpp", "void f() { srand(42); }\n")
        self.assertEqual(self.rules(self.lint()), ["raw-rand"])

    def test_qualified_rand_is_flagged_but_other_scopes_are_not(self):
        self.write("src/core/x.cpp",
                   "int f() { return std::rand() + ::rand(); }\n"
                   "int g() { return dice::rand(); }\n")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["raw-rand"])
        self.assertEqual([f.line for f in findings], [1])

    def test_rand_in_comment_or_identifier_is_not_flagged(self):
        self.write("src/core/x.cpp",
                   "// rand() would be wrong here\n"
                   "int operand(int x);\n"
                   "int g(int my_rand) { return operand(my_rand); }\n")
        self.assertEqual(self.lint(), [])

    # --- rng-flow on std::random_device --------------------------------

    def test_random_device_outside_rng_is_flagged(self):
        self.write("src/trace/x.cpp", "#include <random>\nstd::random_device rd;\n")
        self.assertEqual(self.rules(self.lint()), ["rng-flow"])

    def test_random_device_inside_rng_is_allowed(self):
        self.write("src/util/rng.cpp", "#include <random>\nstd::random_device rd;\n")
        self.assertEqual(self.lint(), [])

    # --- time-seed ------------------------------------------------------

    def test_time_nullptr_is_flagged(self):
        self.write("src/rl/x.cpp", "auto seed = time(nullptr);\n")
        self.assertEqual(self.rules(self.lint()), ["time-seed"])

    def test_std_time_null_is_flagged(self):
        self.write("src/rl/x.cpp", "auto seed = std::time(NULL);\n")
        self.assertEqual(self.rules(self.lint()), ["time-seed"])

    def test_std_time_with_out_argument_is_flagged(self):
        self.write("src/rl/x.cpp",
                   "void f() { std::time_t t; std::time (&t); }\n")
        self.assertEqual(self.rules(self.lint()), ["time-seed"])

    def test_runtime_named_function_is_not_flagged(self):
        self.write("src/rl/x.cpp", "double t = elapsed_time(0);\n")
        self.assertEqual(self.lint(), [])

    # --- unordered-iteration --------------------------------------------

    def test_unordered_iteration_is_reported_once(self):
        # With no build graph in the tree the rule covers all of src/; the
        # loop is one finding, not one per rule that could see it.
        self.write("src/sim/x.cpp",
                   "#include <unordered_map>\n"
                   "std::unordered_map<int, double> costs_;\n"
                   "double total() {\n"
                   "  double sum = 0;\n"
                   "  for (const auto& [k, v] : costs_) sum += v;\n"
                   "  return sum;\n"
                   "}\n")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["unordered-iteration"])
        self.assertEqual(len(findings), 1)

    # --- openmp-pragma --------------------------------------------------

    def test_omp_pragma_is_flagged(self):
        self.write("src/nn/x.cpp", "#pragma omp parallel for\n")
        self.assertEqual(self.rules(self.lint()), ["openmp-pragma"])

    def test_continued_omp_pragma_is_flagged_and_commented_one_is_not(self):
        self.write("src/nn/x.cpp",
                   "// #pragma omp parallel for\n"
                   "/* #pragma omp\n"
                   "   parallel */\n"
                   "#pragma \\\n"
                   "  omp parallel for\n")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["openmp-pragma"])
        self.assertEqual([f.line for f in findings], [4])

    # --- raw-new-delete -------------------------------------------------

    def test_raw_new_is_flagged(self):
        self.write("src/core/x.cpp", "int* p = new int(3);\n")
        self.assertEqual(self.rules(self.lint()), ["raw-new-delete"])

    def test_raw_delete_is_flagged(self):
        self.write("src/core/x.cpp", "void f(int* p) { delete p; }\n")
        self.assertEqual(self.rules(self.lint()), ["raw-new-delete"])

    def test_nothrow_new_is_flagged(self):
        self.write("src/core/x.cpp", "int* p = new(std::nothrow) int;\n")
        self.assertEqual(self.rules(self.lint()), ["raw-new-delete"])

    def test_global_scope_new_is_flagged(self):
        self.write("src/core/x.cpp", "int* p = ::new int(1);\n")
        self.assertEqual(self.rules(self.lint()), ["raw-new-delete"])

    def test_parenthesized_delete_is_flagged(self):
        self.write("src/core/x.cpp", "void f(int* p) { delete(p); }\n")
        self.assertEqual(self.rules(self.lint()), ["raw-new-delete"])

    def test_deleted_functions_and_operator_new_are_clean(self):
        self.write("src/core/x.hpp",
                   "struct S {\n"
                   "  S(const S&) = delete;\n"
                   "  S& operator=(const S&) = delete;\n"
                   "  void* operator new(std::size_t n);\n"
                   "  void operator delete(void* p);\n"
                   "  int renew_count = 0;\n"
                   "};\n")
        self.write("src/core/y.cpp", '#include "core/x.hpp"\n')
        self.assertEqual(self.lint(), [])

    def test_make_unique_is_clean(self):
        self.write("src/core/x.cpp",
                   "auto p = std::make_unique<int>(3);\n"
                   "// a new idea, deleted functions, and placement words\n")
        self.assertEqual(self.lint(), [])

    # --- ffp-contract-guard ---------------------------------------------

    def test_unguarded_target_clones_kernel_is_flagged(self):
        self.write("src/nn/kernels.cpp", "MINICOST_TARGET_CLONES void k();\n")
        self.write("src/nn/CMakeLists.txt", "add_library(minicost_nn STATIC kernels.cpp)\n")
        self.assertEqual(self.rules(self.lint()), ["ffp-contract-guard"])

    def test_guarded_target_clones_kernel_is_clean(self):
        self.write("src/nn/kernels.cpp", "MINICOST_TARGET_CLONES void k();\n")
        self.write("src/nn/CMakeLists.txt",
                   "add_library(minicost_nn STATIC kernels.cpp)\n"
                   "set_source_files_properties(kernels.cpp PROPERTIES\n"
                   "  COMPILE_OPTIONS \"-O3;-ffp-contract=off\")\n")
        self.assertEqual(self.lint(), [])

    # --- suppressions ---------------------------------------------------

    def test_inline_suppression_with_reason_is_honored(self):
        self.write(
            "src/core/x.cpp",
            "int* p = new int(3);  // lint-contract: allow(raw-new-delete) -- FFI handoff\n")
        self.assertEqual(self.lint(), [])

    def test_previous_line_suppression_is_honored(self):
        self.write(
            "src/core/x.cpp",
            "// lint-contract: allow(raw-new-delete) -- FFI handoff\n"
            "int* p = new int(3);\n")
        self.assertEqual(self.lint(), [])

    def test_suppression_without_reason_is_an_error(self):
        self.write(
            "src/core/x.cpp",
            "int* p = new int(3);  // lint-contract: allow(raw-new-delete)\n")
        self.assertEqual(self.rules(self.lint()),
                         ["bad-suppression", "raw-new-delete"])

    def test_suppression_for_wrong_rule_does_not_mask_and_is_stale(self):
        self.write(
            "src/core/x.cpp",
            "int* p = new int(3);  // lint-contract: allow(raw-rand) -- wrong rule\n")
        self.assertEqual(self.rules(self.lint()),
                         ["raw-new-delete", "stale-suppression"])

    def test_unknown_rule_id_is_an_error(self):
        self.write(
            "src/core/x.cpp",
            "// lint-contract: allow(no-such-rule) -- typo\n"
            "int x = 1;\n")
        self.assertEqual(self.rules(self.lint()), ["bad-suppression"])

    # --- stale suppressions ---------------------------------------------

    def test_stale_suppression_is_an_error(self):
        self.write(
            "src/core/x.cpp",
            "// lint-contract: allow(raw-rand) -- the call below was removed\n"
            "int f() { return 3; }\n")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["stale-suppression"])
        self.assertEqual(findings[0].line, 1)

    def test_live_suppression_is_not_stale(self):
        self.write(
            "src/core/x.cpp",
            "// lint-contract: allow(raw-rand) -- exercising the C API shim\n"
            "int f() { return rand(); }\n")
        self.assertEqual(self.lint(), [])

    def test_inline_live_suppression_is_not_stale(self):
        self.write(
            "src/core/x.cpp",
            "int f() { return rand(); }  // lint-contract: allow(raw-rand) -- shim\n")
        self.assertEqual(self.lint(), [])

    def test_one_stale_among_two_suppressions_is_reported_once(self):
        self.write(
            "src/core/x.cpp",
            "int f() { return rand(); }  // lint-contract: allow(raw-rand) -- shim\n"
            "// lint-contract: allow(openmp-pragma) -- nothing below anymore\n"
            "int g() { return 4; }\n")
        findings = self.lint()
        self.assertEqual(self.rules(findings), ["stale-suppression"])
        self.assertEqual(len(findings), 1)
        self.assertEqual(findings[0].line, 2)

    # --- scanning -------------------------------------------------------

    def test_scans_tools_and_bench_too(self):
        self.write("tools/x.cpp", "void f() { srand(1); }\n")
        self.write("bench/y.cpp", "int g() { return rand(); }\n")
        findings = self.lint()
        self.assertEqual(len(findings), 2)
        self.assertEqual(self.rules(findings), ["raw-rand"])

    def test_scans_examples_and_fuzz_too(self):
        self.write("examples/x.cpp", "void f() { srand(1); }\n")
        self.write("fuzz/y.cpp", "int g() { return rand(); }\n")
        self.write("perfbench/z.cpp", "int h() { return rand(); }\n")
        findings = self.lint()
        self.assertEqual(sorted(f.path for f in findings),
                         ["examples/x.cpp", "fuzz/y.cpp"])
        self.assertEqual(self.rules(findings), ["raw-rand"])

    def test_tests_directory_exempt_from_new_delete_only(self):
        # tests/ is outside the default walk, so name the file explicitly:
        # raw new is allowed there, rand() is not.
        self.write("tests/x.cpp", "int* p = new int(3);\n")
        self.assertEqual(self.lint([Path("tests/x.cpp")]), [])
        self.write("tests/x.cpp", "int f() { return rand(); }\n")
        self.assertEqual(self.rules(self.lint([Path("tests/x.cpp")])),
                         ["raw-rand"])

    def test_real_repo_tree_is_clean(self):
        findings = lint_contract.run(REPO_ROOT)
        self.assertEqual([str(f) for f in findings], [])


class StripCodeTest(unittest.TestCase):
    def test_strips_comments_strings_preprocessor(self):
        src = (
            "#define FOO 1 \\\n"
            "  continued\n"
            'auto s = "a // not a comment";  // real comment\n'
            "int x = 2; /* block\n"
            "still block */ int y = 3;\n"
        )
        lines, directives = lint_contract.strip_code(src)
        self.assertEqual(lines[0], "")
        self.assertEqual(lines[1], "")
        self.assertIn('""', lines[2])
        self.assertNotIn("not a comment", lines[2])
        self.assertNotIn("real comment", lines[2])
        self.assertNotIn("block", lines[3])
        self.assertIn("int y = 3;", lines[4])
        self.assertEqual(len(lines), 5)  # line structure preserved
        self.assertEqual([(n, d.split()) for n, d in directives],
                         [(1, ["#define", "FOO", "1", "continued"])])

    def test_raw_string(self):
        lines, _ = lint_contract.strip_code(
            'auto r = R"(has ) and ")"; int z;')
        self.assertNotIn("has", lines[0])
        self.assertIn("int z;", lines[0])


class TypeMachineryTest(unittest.TestCase):
    def make_index(self, aliases=None):
        ff = lint_contract.FileFacts(rel="src/a.hpp", aliases=aliases or {})
        return lint_contract.Index({"src/a.hpp": ff})

    def test_alias_chain(self):
        idx = self.make_index({"Money": "double", "Cash": "Money"})
        self.assertEqual(idx.canonical("Cash"), "double")
        self.assertTrue(idx.is_double("Cash"))

    def test_element_type(self):
        idx = self.make_index()
        self.assertEqual(idx.element_type("std::vector<double>"), "double")
        self.assertEqual(
            idx.element_type("std::unordered_map<int,std::string>"),
            "std::string")

    def test_is_unordered_through_alias(self):
        idx = self.make_index({"CostMap": "std::unordered_map<int,double>"})
        self.assertTrue(idx.is_unordered("CostMap"))
        self.assertFalse(idx.is_unordered("std::map<int,double>"))

    def test_is_rng_engine(self):
        idx = self.make_index({"Engine": "std::mt19937"})
        self.assertTrue(idx.is_rng_engine("Engine"))
        self.assertTrue(idx.is_rng_engine("std::random_device"))
        self.assertFalse(idx.is_rng_engine("std::vector<int>"))

    def test_split_template_args(self):
        self.assertEqual(
            lint_contract._split_template_args("std::pair<int,int>,double"),
            ["std::pair<int,int>", "double"])


class LinkClosureTest(unittest.TestCase):
    def test_closure_from_fixture_build_graph(self):
        dirs = lint_contract.core_link_closure(FIXTURES / "linkscope")
        self.assertEqual(dirs, ["src/core", "src/sim"])

    def test_missing_graph_returns_none(self):
        self.assertIsNone(lint_contract.core_link_closure(FIXTURES / "billing"))


class BillingRuleTest(unittest.TestCase):
    def test_bad_fixture_fails_with_rule_id(self):
        findings = run_fixture("billing/bad")
        self.assertEqual(rules_of(findings), ["billing-exact-sum"])
        self.assertEqual(len(findings), 1)
        self.assertIn("Helper::fold", findings[0].message)
        self.assertEqual(findings[0].path, "src/sim/sim.cpp")

    def test_good_fixture_clean(self):
        self.assertEqual(run_fixture("billing/good"), [])


class RngRuleTest(unittest.TestCase):
    def test_bad_fixture_flags_construction_and_caller(self):
        findings = run_fixture("rng/bad")
        self.assertEqual(rules_of(findings), ["rng-flow"])
        messages = "\n".join(f.message for f in findings)
        self.assertIn("constructs std::mt19937", messages)
        self.assertIn("caller()", messages)
        self.assertEqual(len(findings), 2)

    def test_good_fixture_clean(self):
        self.assertEqual(run_fixture("rng/good"), [])

    def test_declarations_outside_functions_are_flagged(self):
        findings = run_fixture("rng/decls/bad")
        self.assertEqual(rules_of(findings), ["rng-flow"])
        self.assertEqual(
            sorted((f.line, f.message.split("'")[1]) for f in findings),
            [(8, "g_rd"), (9, "g_engine"), (11, "Holder::eng_"),
             (11, "Holder::member"), (20, "Sampler::engine_")])

    def test_declarations_in_rng_and_of_non_engines_are_clean(self):
        self.assertEqual(run_fixture("rng/decls/good"), [])


class UnorderedRuleTest(unittest.TestCase):
    def test_bad_fixture_fails_with_rule_id(self):
        findings = run_fixture("unordered/bad")
        self.assertEqual(rules_of(findings), ["unordered-iteration"])
        self.assertEqual(len(findings), 1)

    def test_good_fixture_clean(self):
        self.assertEqual(run_fixture("unordered/good"), [])

    def test_link_scope_limits_rule_to_core_closure(self):
        findings = run_fixture("linkscope")
        self.assertEqual(rules_of(findings), ["unordered-iteration"])
        self.assertEqual([f.path for f in findings], ["src/sim/linked.cpp"])


class LockRuleTest(unittest.TestCase):
    def test_bad_fixture_fails_with_rule_id(self):
        findings = run_fixture("lock/bad")
        self.assertEqual(rules_of(findings), ["lock-pool-callback"])
        self.assertEqual(len(findings), 1)
        self.assertIn("Registry::flush", findings[0].message)

    def test_good_fixture_clean(self):
        self.assertEqual(run_fixture("lock/good"), [])


class OrphanHeaderRuleTest(unittest.TestCase):
    def test_bad_fixture_fails_with_rule_id(self):
        # check.hpp: included only by its own .cpp and by tests/, which do
        # not count. sweep.hpp: included only from bench/, which does not
        # count either.
        findings = run_fixture("orphan/bad")
        self.assertEqual([(f.path, f.rule) for f in findings],
                         [("src/core/sweep.hpp", "orphan-header"),
                          ("src/nn/check.hpp", "orphan-header")])

    def test_good_fixture_clean(self):
        # perfbench/ and examples/ includers count; includes resolve
        # against the includer's directory too.
        self.assertEqual(run_fixture("orphan/good"), [])

    def test_only_named_headers_are_judged(self):
        root = FIXTURES / "orphan" / "bad"
        self.assertEqual(
            lint_contract.run(root, [root / "src" / "nn" / "check.cpp"]), [])


class SuppressionTest(unittest.TestCase):
    def test_stale_reasonless_and_unknown_are_errors(self):
        findings = run_fixture("suppress/bad")
        rules = [f.rule for f in findings]
        self.assertIn("stale-suppression", rules)
        self.assertEqual(rules.count("bad-suppression"), 2)
        self.assertEqual(len(findings), 3)

    def test_live_suppression_is_silent_and_not_stale(self):
        self.assertEqual(run_fixture("suppress/good"), [])


class RealTreeTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        # Through the command line, as ctest and CI run it.
        self.assertEqual(lint_contract.main(["--root", str(REPO_ROOT)]), 0)

    def test_repo_has_live_suppressions(self):
        # The reasoned allows in billing.cpp document the order-independence
        # argument; if they disappear the rule (or the code) changed.
        text = (REPO_ROOT / "src" / "sim" / "billing.cpp").read_text()
        self.assertIn("lint-contract: allow(billing-exact-sum)", text)


if __name__ == "__main__":
    unittest.main(verbosity=2)
