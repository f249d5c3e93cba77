#!/usr/bin/env python3
"""Unit tests for tools/lint.py (registered as the lint.repo.unit ctest):
per-rule positive/negative/suppressed cases driven through the Linter's
rule methods, the comment/string stripper, and the suppression-hygiene
rule added with the determinism analyzer."""

import sys
import unittest

import lint


def run_rule(method_name, path, text):
    linter = lint.Linter("/nonexistent")
    code_text = lint.strip_comments_and_strings(text)
    raw_lines = text.split("\n")
    code_lines = code_text.split("\n")
    method = getattr(linter, method_name)
    if method_name in ("lint_units", "lint_guards", "lint_hot_label"):
        method(path, raw_lines, code_text)
    elif method_name == "lint_suppressions":
        method(path, raw_lines)
    else:
        method(path, raw_lines, code_lines)
    return linter.findings


class StripTest(unittest.TestCase):
    def test_line_comment_blanked(self):
        out = lint.strip_comments_and_strings("int x; // rand()\n")
        self.assertNotIn("rand", out)
        self.assertIn("int x;", out)

    def test_block_comment_preserves_newlines(self):
        src = "a /* one\ntwo */ b\n"
        out = lint.strip_comments_and_strings(src)
        self.assertEqual(out.count("\n"), src.count("\n"))
        self.assertNotIn("two", out)

    def test_string_contents_blanked(self):
        out = lint.strip_comments_and_strings('call("std::cout");\n')
        self.assertNotIn("cout", out)

    def test_digit_separator_is_not_a_char_literal(self):
        out = lint.strip_comments_and_strings(
            "int n = 1'000'000;\nint c = 'x';\nrand();\n")
        self.assertIn("rand()", out)
        self.assertIn("1'000'000", out)
        self.assertNotIn("x", out)


class DeterminismRuleTest(unittest.TestCase):
    def test_system_clock_flagged(self):
        findings = run_rule(
            "lint_determinism", "src/sim/x.cc",
            "auto t = std::chrono::system_clock::now();\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("[determinism]", findings[0])

    def test_rand_flagged(self):
        findings = run_rule("lint_determinism", "src/core/x.cc",
                            "int r = rand();\n")
        self.assertEqual(len(findings), 1)

    def test_session_tier_in_zone(self):
        findings = run_rule("lint_determinism", "src/trace/x.cc",
                            "int r = rand();\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("[determinism]", findings[0])

    def test_outside_zone_ignored(self):
        findings = run_rule("lint_determinism", "src/obs/x.cc",
                            "int r = rand();\n")
        self.assertEqual(findings, [])

    def test_suppressed(self):
        findings = run_rule(
            "lint_determinism", "src/sim/x.cc",
            "int r = rand();  // lint:allow(determinism)\n")
        self.assertEqual(findings, [])


class UnitsRuleTest(unittest.TestCase):
    def test_double_watts_param_flagged(self):
        findings = run_rule("lint_units", "src/hw/x.h",
                            "void SetCap(double watts);\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("[units]", findings[0])

    def test_ratio_name_exempt(self):
        findings = run_rule("lint_units", "src/hw/x.h",
                            "void Set(double joules_per_second);\n")
        self.assertEqual(findings, [])

    def test_struct_field_not_flagged(self):
        findings = run_rule("lint_units", "src/hw/x.h",
                            "struct S {\n  double watts;\n};\n")
        self.assertEqual(findings, [])


class GuardsRuleTest(unittest.TestCase):
    def test_wrong_guard_flagged(self):
        findings = run_rule("lint_guards", "src/hw/soc.h",
                            "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("SRC_HW_SOC_H_", findings[0])

    def test_correct_guard_clean(self):
        findings = run_rule(
            "lint_guards", "src/hw/soc.h",
            "#ifndef SRC_HW_SOC_H_\n#define SRC_HW_SOC_H_\n#endif\n")
        self.assertEqual(findings, [])


class StdioRuleTest(unittest.TestCase):
    def test_printf_flagged(self):
        findings = run_rule("lint_stdio", "src/qos/x.cc",
                            'printf("%d", x);\n')
        self.assertEqual(len(findings), 1)

    def test_snprintf_clean(self):
        findings = run_rule("lint_stdio", "src/qos/x.cc",
                            "snprintf(buf, sizeof(buf), f, x);\n")
        self.assertEqual(findings, [])

    def test_fprintf_stderr_clean(self):
        findings = run_rule("lint_stdio", "src/qos/x.cc",
                            'fprintf(stderr, "%d", x);\n')
        self.assertEqual(findings, [])


class LayeringRuleTest(unittest.TestCase):
    def test_sim_including_workload_flagged(self):
        findings = run_rule(
            "lint_layering", "src/sim/x.h",
            '#include "src/workload/dl/serving.h"\n')
        self.assertEqual(len(findings), 1)
        self.assertIn("[layering]", findings[0])

    def test_allowlisted_file_clean(self):
        findings = run_rule(
            "lint_layering", "src/core/det_scenarios.cc",
            '#include "src/workload/dl/serving.h"\n')
        self.assertEqual(findings, [])

    def test_commented_include_clean(self):
        findings = run_rule(
            "lint_layering", "src/sim/x.h",
            '// #include "src/workload/dl/serving.h"\n')
        self.assertEqual(findings, [])


class AdmissionRuleTest(unittest.TestCase):
    def test_private_queue_cap_flagged(self):
        findings = run_rule("lint_admission", "src/workload/x.h",
                            "int max_queue_ = 0;\n")
        self.assertEqual(len(findings), 1)

    def test_admission_accessor_path_clean(self):
        findings = run_rule("lint_admission", "src/workload/x.cc",
                            "admission().SetMaxQueue(500);\n")
        self.assertEqual(findings, [])


class ArrivalRuleTest(unittest.TestCase):
    def test_exponential_draw_flagged(self):
        findings = run_rule(
            "lint_arrival", "src/workload/x.cc",
            "const double gap = rng_.Exponential(rate);\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("[arrival]", findings[0])
        self.assertIn("loadgen", findings[0])

    def test_poisson_draw_flagged(self):
        findings = run_rule(
            "lint_arrival", "src/core/x.cc",
            "int64_t n = sim->rng().Poisson(mean);\n")
        self.assertEqual(len(findings), 1)

    def test_arrow_access_flagged(self):
        findings = run_rule(
            "lint_arrival", "src/qos/x.cc",
            "double wait = rng->Exponential(1.0 / mtbf);\n")
        self.assertEqual(len(findings), 1)

    def test_loadgen_exempt(self):
        findings = run_rule(
            "lint_arrival", "src/trace/loadgen.cc",
            "const double gap = rng.Exponential(rate_);\n")
        self.assertEqual(findings, [])

    def test_private_thinning_loop_in_trace_flagged(self):
        # A trace generator thinning on its own instead of through
        # RateProcess::NextArrival.
        findings = run_rule(
            "lint_arrival", "src/trace/gaming_trace.cc",
            "while (true) {\n"
            "  t = t + Duration::SecondsF(rng_.Exponential(peak_per_s));\n"
            "  if (rng_.NextDouble() < ArrivalRate(t) / kPeak) break;\n"
            "}\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("[arrival]", findings[0])

    def test_cluster_fault_chains_exempt(self):
        findings = run_rule(
            "lint_arrival", "src/cluster/fault.cc",
            "const double wait_s = rng_.Exponential(1.0 / mtbf);\n")
        self.assertEqual(findings, [])

    def test_comment_mention_clean(self):
        findings = run_rule(
            "lint_arrival", "src/workload/x.h",
            "// Poisson arrivals delegate to the shared source.\n")
        self.assertEqual(findings, [])

    def test_suppressed(self):
        findings = run_rule(
            "lint_arrival", "src/workload/x.cc",
            "double g = rng_.Exponential(r);  // lint:allow(arrival)\n")
        self.assertEqual(findings, [])


class GrayEvidenceRuleTest(unittest.TestCase):
    def test_per_soc_stats_map_flagged(self):
        findings = run_rule(
            "lint_gray_evidence", "src/workload/dl/x.h",
            "std::map<int, RunningStats> soc_latency_;\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("[gray-evidence]", findings[0])
        self.assertIn("DegradationScorer", findings[0])

    def test_per_soc_named_aggregate_flagged(self):
        findings = run_rule(
            "lint_gray_evidence", "src/workload/video/x.h",
            "RunningStats per_soc_latency_ms_;\n")
        self.assertEqual(len(findings), 1)

    def test_sketch_by_soc_flagged(self):
        findings = run_rule(
            "lint_gray_evidence", "src/workload/x.h",
            "std::vector<QuantileSketch> latency_by_soc_;\n")
        self.assertEqual(len(findings), 1)

    def test_fleet_and_priority_stats_clean(self):
        findings = run_rule(
            "lint_gray_evidence", "src/workload/dl/x.h",
            "RunningStats latencies_;\n"
            "std::array<RunningStats, 4> latencies_of_;\n")
        self.assertEqual(findings, [])

    def test_outside_workload_ignored(self):
        findings = run_rule(
            "lint_gray_evidence", "src/core/graydetect.h",
            "std::map<int, RunningStats> soc_latency_;\n")
        self.assertEqual(findings, [])

    def test_suppressed(self):
        findings = run_rule(
            "lint_gray_evidence", "src/workload/x.h",
            "RunningStats per_soc_latency_;  // lint:allow(gray-evidence)\n")
        self.assertEqual(findings, [])


class LifecycleRuleTest(unittest.TestCase):
    def test_slo_registration_flagged(self):
        findings = run_rule("lint_lifecycle", "src/workload/dl/x.cc",
                            "slos_[c] = sim_->obs().slos.Register(spec);\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("[lifecycle]", findings[0])
        self.assertIn("request_ledger.h", findings[0])

    def test_flow_close_flagged(self):
        findings = run_rule(
            "lint_lifecycle", "src/workload/video/x.cc",
            "TraceRequestComplete(&tracer, &ctx, now);\n"
            "TraceRequestDrop(&tracer, &ctx, now);\n")
        self.assertEqual(len(findings), 2)

    def test_client_observer_call_flagged(self):
        findings = run_rule(
            "lint_lifecycle", "src/workload/x.cc",
            "client_observer_(client.ticket, ClientOutcome::kShed, d);\n")
        self.assertEqual(len(findings), 1)

    def test_ledger_path_clean(self):
        findings = run_rule(
            "lint_lifecycle", "src/workload/x.cc",
            "ledger_.SetClientObserver(std::move(observer));\n"
            "ledger_.Finish(RequestLedger::Cause::kFailed, View(r));\n"
            "TraceRequestSubmit(&tracer, &ctx, \"x\", now);\n"
            "// TraceRequestDrop( in a comment\n")
        self.assertEqual(findings, [])

    def test_outside_workload_ignored(self):
        findings = run_rule("lint_lifecycle", "src/qos/request_ledger.cc",
                            "TraceRequestDrop(&tracer, ctx, now);\n")
        self.assertEqual(findings, [])

    def test_suppressed(self):
        findings = run_rule(
            "lint_lifecycle", "src/workload/x.cc",
            "TraceRequestDrop(&t, &c, n);  // lint:allow(lifecycle)\n")
        self.assertEqual(findings, [])


class ChargesRuleTest(unittest.TestCase):
    def test_service_utilization_write_flagged(self):
        findings = run_rule(
            "lint_charges", "src/workload/dl/x.cc",
            "const Status s = soc.AddCpuUtil(grant);\n"
            "status = soc.SetGpuUtil(1.0);\n"
            "soc.SetDspUtil(0.0);\n"
            "soc.AddCodecSession(rate);\n"
            "soc.RemoveCodecSession(rate);\n")
        self.assertEqual(len(findings), 5)
        self.assertIn("[charges]", findings[0])
        self.assertIn("Reserve", findings[0])

    def test_fail_epoch_copy_flagged(self):
        findings = run_rule(
            "lint_charges", "src/trace/x.cc",
            "session.fail_epoch = soc.fail_count();\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("`fail_count()`", findings[0])

    def test_core_flagged(self):
        findings = run_rule("lint_charges", "src/core/x.cc",
                            "cluster_->soc(i).SetCpuUtil(0.5);\n")
        self.assertEqual(len(findings), 1)

    def test_owners_clean(self):
        for path in ("src/sched/capacity.cc", "src/hw/soc.cc"):
            findings = run_rule(
                "lint_charges", path,
                "const Status s = soc.AddCpuUtil(d.cpu_util);\n"
                "return soc.fail_count() != r.fail_epoch;\n")
            self.assertEqual(findings, [], path)

    def test_allowlist_covers_only_named_calls(self):
        findings = run_rule(
            "lint_charges", "src/workload/dl/training.cc",
            "const Status s = cluster_->soc(i).SetCpuUtil(1.0);\n"
            "soc.AddCpuUtil(0.1);\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("training.cc:2:", findings[0])

    def test_outside_src_and_comments_clean(self):
        self.assertEqual(
            run_rule("lint_charges", "tests/x.cc", "soc.AddCpuUtil(0.1);\n"),
            [])
        self.assertEqual(
            run_rule("lint_charges", "src/workload/x.h",
                     "// fail_count() at admission\n"
                     "int64_t fail_epoch = 0;\n"),
            [])

    def test_suppressed(self):
        findings = run_rule(
            "lint_charges", "src/workload/x.cc",
            "soc.SetGpuUtil(0.0);  // lint:allow(charges)\n")
        self.assertEqual(findings, [])


def run_knobs(files, checked):
    """Runs the knobs rule over {path: text} with its own struct table."""
    linter = lint.Linter("/nonexistent")
    linter.lint_knobs(
        {path: (text.split("\n"), lint.strip_comments_and_strings(text))
         for path, text in files.items()},
        checked)
    return linter.findings


KNOBS_HEADER = (
    "struct InnerConfig {\n"
    "  Duration window = Duration::Seconds(30);\n"
    "  int min_samples = 20;\n"
    "};\n"
    "struct OuterConfig {\n"
    "  InnerConfig inner;\n"
    "  Duration tick = Duration::Seconds(30);\n"
    "  double unset = 0.5;  // A comment.\n"
    "  int Method() const { return 1; }\n"
    "};\n")
KNOBS_CHECKED = {"InnerConfig": "src/core/x", "OuterConfig": "src/core/x"}


class KnobsRuleTest(unittest.TestCase):
    def test_field_no_workload_sets_is_flagged(self):
        findings = run_knobs(
            {"src/core/x.h": KNOBS_HEADER,
             "bench/b.cc": "OuterConfig config;\n"
                           "config.inner.window = Duration::Seconds(15);\n"
                           "config.inner.min_samples = 1'000;\n"
                           "config.tick = Duration::Seconds(15);\n"},
            KNOBS_CHECKED)
        self.assertEqual(len(findings), 1)
        self.assertIn("src/core/x.h:8: [knobs] OuterConfig::unset", findings[0])

    def test_tests_and_own_files_do_not_count(self):
        findings = run_knobs(
            {"src/core/x.h": KNOBS_HEADER,
             "src/core/x.cc": "OuterConfig c;\nc.unset = 1.0;\n",
             "tests/core/x_test.cc": "OuterConfig c;\nc.unset = 1.0;\n",
             "bench/b.cc": "OuterConfig c;\nc.inner.window = w;\n"
                           "c.inner.min_samples = 5;\nc.tick = w;\n"},
            KNOBS_CHECKED)
        self.assertEqual(len(findings), 1)
        self.assertIn("OuterConfig::unset", findings[0])

    def test_nested_write_counts_for_innermost_struct(self):
        # `c.inner.tick` is no OuterConfig::tick write: tick is not a field
        # of InnerConfig, so only `inner` itself is set.
        findings = run_knobs(
            {"src/core/x.h": KNOBS_HEADER,
             "examples/e.cc": "OuterConfig c;\nc.inner.tick = w;\n"
                              "c.unset = 0.1;\n"},
            KNOBS_CHECKED)
        names = sorted(f.split("] ")[1].split(" ")[0] for f in findings)
        self.assertEqual(names, ["InnerConfig::min_samples",
                                 "InnerConfig::window", "OuterConfig::tick"])

    def test_root_typed_from_nearest_declaration_and_parameters(self):
        findings = run_knobs(
            {"src/core/x.h": KNOBS_HEADER,
             "perfbench/p.cc":
                 "void A(InnerConfig* config) {\n"
                 "  config->window = w;\n"
                 "  config->min_samples = 3;\n"
                 "}\n"
                 "void B() {\n"
                 "  OuterConfig config;\n"
                 "  config.inner.window = w;\n"
                 "  config.tick = w;\n"
                 "  config.unset = 2.0;\n"
                 "}\n"},
            KNOBS_CHECKED)
        self.assertEqual(findings, [])

    def test_designated_initializer_and_push_back_count(self):
        header = ("struct ListConfig {\n"
                  "  std::vector<int> items;\n"
                  "  int size = 0;\n"
                  "};\n")
        findings = run_knobs(
            {"src/core/l.h": header,
             "bench/b.cc": "ListConfig c;\nc.items.push_back(1);\n"
                           "Run(ListConfig{.size = 4});\n"},
            {"ListConfig": "src/core/l"})
        self.assertEqual(findings, [])

    def test_listed_struct_missing_is_flagged(self):
        findings = run_knobs({"src/core/x.h": KNOBS_HEADER},
                             {"GoneConfig": "src/core/x"})
        self.assertEqual(len(findings), 1)
        self.assertIn("GoneConfig", findings[0])

    def test_suppressed(self):
        header = KNOBS_HEADER.replace(
            "double unset = 0.5;  // A comment.",
            "double unset = 0.5;  // lint:allow(knobs)")
        findings = run_knobs(
            {"src/core/x.h": header,
             "bench/b.cc": "OuterConfig c;\nc.inner.window = w;\n"
                           "c.inner.min_samples = 5;\nc.tick = w;\n"},
            KNOBS_CHECKED)
        self.assertEqual(findings, [])


class HotLabelRuleTest(unittest.TestCase):
    def test_to_string_label_flagged(self):
        findings = run_rule(
            "lint_hot_label", "src/workload/x.cc",
            'sim->ScheduleAfter(d, cb,\n'
            '                   "req." + std::to_string(id));\n')
        self.assertEqual(len(findings), 1)
        self.assertIn("[hot-label]", findings[0])

    def test_string_construction_flagged(self):
        findings = run_rule(
            "lint_hot_label", "src/core/x.cc",
            "sim->ScheduleAt(t, cb, std::string(prefix) + name);\n")
        self.assertEqual(len(findings), 1)

    def test_static_literal_clean(self):
        findings = run_rule(
            "lint_hot_label", "src/workload/x.cc",
            'sim->ScheduleAfter(d, cb, "video.frame_deadline");\n')
        self.assertEqual(findings, [])

    def test_to_string_inside_callback_body_exempt(self):
        # Dynamic text inside the callback lambda is not a label.
        findings = run_rule(
            "lint_hot_label", "src/workload/x.cc",
            'sim->ScheduleAfter(d, [this, id] {\n'
            '  span.AddArg("req", std::to_string(id));\n'
            '}, "video.retry");\n')
        self.assertEqual(findings, [])

    def test_outside_src_ignored(self):
        findings = run_rule(
            "lint_hot_label", "bench/x.cc",
            'sim->ScheduleAfter(d, cb, "a" + std::to_string(i));\n')
        self.assertEqual(findings, [])

    def test_suppressed_at_call_line(self):
        findings = run_rule(
            "lint_hot_label", "src/core/x.cc",
            "sim->ScheduleAt(  // lint:allow(hot-label)\n"
            "    t, cb, std::string(name));\n")
        self.assertEqual(findings, [])

    def test_multiline_call_reports_offending_line(self):
        findings = run_rule(
            "lint_hot_label", "src/core/x.cc",
            "sim->ScheduleAt(\n"
            "    t, cb,\n"
            '    "soc." + std::to_string(soc_id));\n')
        self.assertEqual(len(findings), 1)
        self.assertIn("x.cc:3:", findings[0])

    def test_unlabeled_call_flagged(self):
        findings = run_rule(
            "lint_hot_label", "src/workload/x.cc",
            "sim->ScheduleAfter(Wait(a, b),\n"
            "                   [this, id] { Finish(id, \"a.b\"); });\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("x.cc:1: [hot-label] unlabeled", findings[0])

    def test_labeled_call_with_nested_commas_clean(self):
        findings = run_rule(
            "lint_hot_label", "src/workload/x.cc",
            "sim->ScheduleAt(At(a, b), [this, id] { Finish(id, 2); },\n"
            "                \"video.retry\", anchor_group_);\n")
        self.assertEqual(findings, [])

    def test_unlabeled_call_in_engine_allowed(self):
        findings = run_rule(
            "lint_hot_label", "src/sim/x.cc",
            "return ScheduleAt(now_ + d, std::move(cb));\n")
        self.assertEqual(findings, [])


class SuppressionHygieneTest(unittest.TestCase):
    def test_unknown_rule_flagged(self):
        findings = run_rule("lint_suppressions", "src/sim/x.cc",
                            "int x;  // lint:allow(unit)\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("unknown rule `unit`", findings[0])

    def test_malformed_marker_flagged(self):
        findings = run_rule("lint_suppressions", "src/sim/x.cc",
                            "int x;  // lint:allow units\n")
        self.assertEqual(len(findings), 1)
        self.assertIn("malformed", findings[0])

    def test_known_rule_clean(self):
        findings = run_rule("lint_suppressions", "src/sim/x.cc",
                            "int x = rand();  // lint:allow(determinism)\n")
        self.assertEqual(findings, [])

    def test_known_rules_cover_all_rule_methods(self):
        # Every lint_<rule> method's reports must use a name in
        # KNOWN_RULES, or its suppressions would be self-flagged.
        for rule in ("determinism", "units", "guards", "include-cc",
                     "stdio", "layering", "admission", "lifecycle",
                     "charges", "knobs"):
            self.assertIn(rule, lint.KNOWN_RULES)


class ExitCodeTest(unittest.TestCase):
    def test_unknown_suppression_exits_nonzero(self):
        import subprocess
        import tempfile
        import os
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src/sim"))
            with open(os.path.join(tmp, "src/sim/x.cc"), "w") as f:
                f.write("int x;  // lint:allow(nonsense)\n")
            proc = subprocess.run(
                [sys.executable,
                 os.path.join(os.path.dirname(lint.__file__), "lint.py"),
                 "--root", tmp],
                capture_output=True, text=True)
            self.assertEqual(proc.returncode, 1)
            self.assertIn("unknown rule", proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
