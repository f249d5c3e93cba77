#!/usr/bin/env python3
"""Unit tests for tools/detlint.py (registered as the lint.determinism.unit
ctest). Each rule gets a positive (flagged), a suppressed, and a negative
(clean) case, driven through DetLinter.lint_file on synthetic sources."""

import os
import sys
import tempfile
import unittest

import detlint


def run_lint(text, header_text="", path="src/sim/fake.cc"):
    linter = detlint.DetLinter("/nonexistent")
    linter.lint_file(path, text, header_text)
    return linter.findings


def rules_of(findings):
    return [f.split("[", 1)[1].split("]", 1)[0] for f in findings]


class UnorderedMutateTest(unittest.TestCase):
    def test_schedule_in_unordered_loop_flagged(self):
        findings = run_lint(
            "std::unordered_set<uint64_t> live_;\n"
            "void F() {\n"
            "  for (const uint64_t id : live_) {\n"
            "    sim->ScheduleAfter(d, [id] {});\n"
            "  }\n"
            "}\n")
        self.assertEqual(rules_of(findings), ["unordered-mutate"])
        self.assertIn("schedules an event", findings[0])

    def test_container_mutation_flagged(self):
        findings = run_lint(
            "std::unordered_map<int, int> m_;\n"
            "void F() {\n"
            "  for (auto& [k, v] : m_) {\n"
            "    out.push_back(k);\n"
            "  }\n"
            "}\n")
        self.assertEqual(rules_of(findings), ["unordered-mutate"])

    def test_member_declared_in_header_flagged(self):
        findings = run_lint(
            "void C::F() {\n"
            "  for (auto& [k, v] : pending_) {\n"
            "    total_ = k;\n"
            "  }\n"
            "}\n",
            header_text="class C {\n"
                        "  std::unordered_map<uint64_t, int> pending_;\n"
                        "};\n")
        self.assertEqual(rules_of(findings), ["unordered-mutate"])

    def test_pure_read_loop_clean(self):
        findings = run_lint(
            "std::unordered_set<int> s_;\n"
            "bool F(int x) {\n"
            "  for (const int v : s_) {\n"
            "    if (v == x) return true;\n"
            "  }\n"
            "  return false;\n"
            "}\n")
        self.assertEqual(findings, [])

    def test_ordered_map_loop_clean(self):
        findings = run_lint(
            "std::map<int, int> m_;\n"
            "void F() {\n"
            "  for (auto& [k, v] : m_) {\n"
            "    out.push_back(k);\n"
            "  }\n"
            "}\n")
        self.assertEqual(findings, [])

    def test_exempt_with_reason_suppresses(self):
        findings = run_lint(
            "std::unordered_set<uint64_t> ids_;\n"
            "void F() {\n"
            "  for (const uint64_t id : ids_) {  // det:exempt(commutative)\n"
            "    fold.Add(id);\n"
            "  }\n"
            "}\n")
        self.assertEqual(findings, [])

    def test_outside_det_zone_ignored(self):
        findings = run_lint(
            "std::unordered_set<uint64_t> ids_;\n"
            "void F() {\n"
            "  for (const uint64_t id : ids_) {\n"
            "    fold.Add(id);\n"
            "  }\n"
            "}\n",
            path="src/obs/fake.cc")
        # lint_file itself does not zone-filter (run() does); simulate the
        # zone check here.
        self.assertFalse(
            "src/obs/fake.cc".startswith(detlint.lint.DETERMINISM_DIRS))

    def test_session_tier_is_in_the_zone(self):
        with tempfile.TemporaryDirectory() as root:
            os.makedirs(os.path.join(root, "src/trace"))
            with open(os.path.join(root, "src/trace/fake.cc"), "w") as f:
                f.write("std::unordered_set<uint64_t> ids_;\n"
                        "void F() {\n"
                        "  for (const uint64_t id : ids_) {\n"
                        "    fold.Add(id);\n"
                        "  }\n"
                        "}\n")
            findings = detlint.DetLinter(root).run()
        self.assertEqual(rules_of(findings), ["unordered-mutate"])
        self.assertIn("src/trace/fake.cc", findings[0])


class FloatAccumTest(unittest.TestCase):
    def test_float_accumulation_flagged_specifically(self):
        findings = run_lint(
            "std::unordered_map<int, double> loads_;\n"
            "double total_;\n"
            "void F() {\n"
            "  for (const auto& [k, v] : loads_) {\n"
            "    total_ += v;\n"
            "  }\n"
            "}\n")
        self.assertEqual(rules_of(findings), ["unordered-float-accum"])
        self.assertIn("does not commute", findings[0])

    def test_int_accumulation_is_generic_mutate(self):
        findings = run_lint(
            "std::unordered_map<int, int> counts_;\n"
            "int total_;\n"
            "void F() {\n"
            "  for (const auto& [k, v] : counts_) {\n"
            "    total_ += v;\n"
            "  }\n"
            "}\n")
        self.assertEqual(rules_of(findings), ["unordered-mutate"])


class PointerRulesTest(unittest.TestCase):
    def test_pointer_keyed_map_flagged(self):
        findings = run_lint("std::map<SocModel*, int> by_soc_;\n")
        self.assertEqual(rules_of(findings), ["pointer-keyed"])

    def test_pointer_keyed_set_flagged(self):
        findings = run_lint("std::set<const Stream*> active_;\n")
        self.assertEqual(rules_of(findings), ["pointer-keyed"])

    def test_id_keyed_map_clean(self):
        findings = run_lint("std::map<int64_t, Stream> streams_;\n")
        self.assertEqual(findings, [])

    def test_std_less_on_pointer_flagged(self):
        findings = run_lint("std::priority_queue<T*, std::vector<T*>,"
                            " std::less<T*>> q_;\n")
        self.assertEqual(rules_of(findings), ["pointer-order"])

    def test_uintptr_cast_flagged(self):
        findings = run_lint(
            "uint64_t Key(const Soc* s) {\n"
            "  return reinterpret_cast<uintptr_t>(s);\n"
            "}\n")
        self.assertEqual(rules_of(findings), ["pointer-order"])


class ExemptHygieneTest(unittest.TestCase):
    def test_bare_marker_flagged(self):
        findings = run_lint("int x;  // det:exempt\n")
        self.assertEqual(rules_of(findings), ["exempt-syntax"])

    def test_empty_reason_flagged(self):
        findings = run_lint("int x;  // det:exempt()\n")
        self.assertEqual(rules_of(findings), ["exempt-syntax"])

    def test_stale_exempt_flagged(self):
        findings = run_lint("int x = 1;  // det:exempt(no finding here)\n")
        self.assertEqual(rules_of(findings), ["stale-exempt"])

    def test_used_exempt_not_stale(self):
        findings = run_lint(
            "std::unordered_set<int> s_;\n"
            "void F() {\n"
            "  for (const int v : s_) {  // det:exempt(commutative sum)\n"
            "    total_ += v;\n"
            "  }\n"
            "}\n")
        self.assertEqual(findings, [])


class HelperTest(unittest.TestCase):
    def test_unordered_names_handles_nested_templates(self):
        names = detlint.unordered_names(
            "std::unordered_map<int, std::vector<std::pair<int, int>>> deep_;")
        self.assertEqual(names, {"deep_"})

    def test_unordered_names_handles_alias(self):
        names = detlint.unordered_names(
            "using IdSet = std::unordered_set<uint64_t>;")
        self.assertIn("IdSet", names)

    def test_rules_list_matches_module(self):
        self.assertEqual(
            sorted(detlint.RULES),
            sorted(["unordered-mutate", "unordered-float-accum",
                    "pointer-keyed", "pointer-order", "exempt-syntax",
                    "stale-exempt"]))


if __name__ == "__main__":
    sys.exit(unittest.main())
