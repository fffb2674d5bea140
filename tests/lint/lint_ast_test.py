#!/usr/bin/env python3
"""Tests for tools/lint_ast.py.

Two layers:
  * unit tests for the frontend's lexer / type machinery, and
  * the committed good/bad fixture mini-trees under fixtures/ast/ — each
    bad fixture must fail with exactly its rule id, each good fixture must
    be clean.
"""

import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import lint_ast  # noqa: E402

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "ast"


def run_fixture(name: str):
    return lint_ast.run(FIXTURES / name)


def rules_of(findings):
    return sorted({f.rule for f in findings})


class StripCodeTest(unittest.TestCase):
    def test_strips_comments_strings_preprocessor(self):
        src = (
            "#define FOO 1 \\\n"
            "  continued\n"
            'auto s = "a // not a comment";  // real comment\n'
            "int x = 2; /* block\n"
            "still block */ int y = 3;\n"
        )
        lines = lint_ast.strip_code(src)
        self.assertEqual(lines[0], "")
        self.assertEqual(lines[1], "")
        self.assertIn('""', lines[2])
        self.assertNotIn("not a comment", lines[2])
        self.assertNotIn("real comment", lines[2])
        self.assertNotIn("block", lines[3])
        self.assertIn("int y = 3;", lines[4])
        self.assertEqual(len(lines), 5)  # line structure preserved

    def test_raw_string(self):
        lines = lint_ast.strip_code('auto r = R"(has ) and ")"; int z;')
        self.assertNotIn("has", lines[0])
        self.assertIn("int z;", lines[0])


class TypeMachineryTest(unittest.TestCase):
    def make_index(self, aliases=None):
        ff = lint_ast.FileFacts(rel="src/a.hpp", aliases=aliases or {})
        return lint_ast.Index({"src/a.hpp": ff})

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
            lint_ast._split_template_args("std::pair<int,int>,double"),
            ["std::pair<int,int>", "double"])


class LinkClosureTest(unittest.TestCase):
    def test_closure_from_fixture_build_graph(self):
        dirs = lint_ast.core_link_closure(FIXTURES / "linkscope")
        self.assertEqual(dirs, ["src/core", "src/sim"])

    def test_missing_graph_returns_none(self):
        self.assertIsNone(lint_ast.core_link_closure(FIXTURES / "billing"))


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
        db = REPO_ROOT / "build" / "compile_commands.json"
        findings = lint_ast.run(
            REPO_ROOT, compile_db=db if db.is_file() else None)
        self.assertEqual([str(f) for f in findings], [])

    def test_repo_has_live_suppressions(self):
        # The reasoned allows in billing.cpp document the order-independence
        # argument; if they disappear the rule (or the code) changed.
        text = (REPO_ROOT / "src" / "sim" / "billing.cpp").read_text()
        self.assertIn("lint-ast: allow(billing-exact-sum)", text)


if __name__ == "__main__":
    unittest.main()
