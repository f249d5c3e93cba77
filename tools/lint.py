#!/usr/bin/env python3
"""Repo-specific lint rules that generic tools cannot express.

Registered as the `lint.repo` ctest. Rules:

  determinism   No wall-clock/nondeterminism primitives in the
                deterministic zone, src/{sim,sched,core,cluster,qos,
                workload,net,trace}. The simulator's core
                contract (src/sim/simulator.h) is that a given seed always
                produces identical runs; one stray system_clock or rand()
                call breaks every calibrated table downstream. Simulation
                code must take time from Simulator::Now() and randomness
                from src/base/rng.h.

  units         No raw `double` function parameters named like physical
                quantities (watts/seconds/joules/bytes/...) in public
                headers: src/base/units.h has strong types (Power,
                Duration, Energy, DataSize) precisely so call sites cannot
                swap or mis-scale magnitudes. Ratio names (x_per_y) are
                exempt — no unit type exists for them.

  guards        Include guards must be SRC_<PATH>_H_ (path uppercased,
                separators to underscores), so guards never collide as the
                tree grows.

  include-cc    Never `#include` a .cc file; it duplicates definitions and
                breaks the one-TU-per-source build model.

  stdio         No raw stdout writes (`printf`, `std::cout`, `puts`,
                `fprintf(stdout, ...)`) under src/. Library code returns
                data, takes an explicit std::ostream&, or records through
                the observability layer (src/obs); only binaries (bench/,
                examples/, tools/) own stdout. snprintf-style buffer
                formatting and stderr logging are fine.

  layering      Lower layers must not include workload code:
                src/{base,sim,sched,qos} never include src/workload, and
                src/core only through the explicit allowlist (autoscaler,
                the overload manager, the benchmark suite and the
                determinism scenarios drive workloads by design).
                Placement went through one inversion already —
                orchestrator.h pulling PlacementPolicy out of the live
                video service — and src/sched exists
                precisely so policy types live below every service; this
                rule keeps the dependency arrow pointing one way.

  admission     Workload/trace services must not carry private queue caps:
                no `SetMaxQueue` or `max_queue_` outside the qos admission
                path. Admission control (length caps, priority floors)
                is owned by src/qos/admission.h and configured via each
                service's admission() accessor, so the brownout governor
                has a single choke point per service.

  gray-evidence  Workload code must not aggregate raw per-SoC latency or
                error statistics (per-SoC RunningStats/QuantileSketch, or
                stats maps keyed by SoC id). Per-SoC request evidence is
                owned by src/core/graydetect.h: services report each
                attempt through their AttemptObserver and the
                DegradationScorer does the windowing, fleet-median
                comparison, and suspicion math. A service that forks its
                own per-SoC aggregates feeds the quarantine loop nothing
                and drifts from the one evidence stream the detector
                reasons about. Fleet-wide and per-priority stats are fine.

  lifecycle     Workload services must not hand-roll terminal request
                bookkeeping: no `slos.Register(`, no `TraceRequestComplete(`
                / `TraceRequestDrop(`, and no direct ClientObserver call
                (`client_observer_(...)`) under src/workload. What happens
                when a request completes, is shed, expires or fails --
                outcome counts, the per-class SLO feed, the exactly-once
                client notification, the breaker rule and the flow-trace
                close -- is owned by src/qos/request_ledger.h; a service that
                copies any of it by hand drifts (one copy once never fed its
                breaker a success, so the breaker could never close).

  hot-label     ScheduleAt/ScheduleAfter call sites under src/ must pass
                static-ish labels: no std::to_string, StrCat, per-event
                std::string construction, or literal concatenation in the
                argument list. The simulator interns labels and stores a
                `const char*` per event record precisely so the hot path
                never allocates; one formatted label per event would put a
                malloc back into every schedule. Dynamic text belongs in
                trace span args, not event labels. Lambda bodies (the
                callback argument) are exempt — only the call's own
                argument expressions are checked. Outside src/sim (the
                engine, which declares the two-argument overloads) every
                call must pass a label at all: an unlabeled event is time
                the simulator cannot attribute to a layer, and a name
                missing from every divergence report.

  arrival       Service code must not roll its own arrival process: no
                Exponential()/Poisson() inter-arrival draws under
                src/{workload,core,qos,sched,trace}, except in
                src/trace/loadgen.{h,cc}. Arrival processes live there
                (OpenLoopSource, and RateProcess::NextArrival, the one
                thinning loop the session tier and the gaming trace share),
                and retry pacing in src/base/retry.h, so every process that
                generates load is visible, seedable, and reusable — an
                ad-hoc Exponential loop inside a service is an invisible
                second load generator that no bench or determinism
                scenario can reproduce or reason about.

  charges        Under src/, only src/hw (the SoC model) and src/sched (the
                capacity view) may write SoC utilization or codec sessions
                (AddCpuUtil, SetCpuUtil, SetGpuUtil, SetDspUtil,
                AddCodecSession, RemoveCodecSession) or read fail_count().
                Services charge a SoC through SocCapacityView::Reserve and
                give it back through Release(reservation), which owns the
                rule for charges a failure already wiped; a service that
                writes utilization itself or keeps its own fail-epoch copy
                forks that rule (two copies once took a co-resident
                workload's CPU after an unnoticed reboot) and hides the
                load change from the placement layer. The one allowance is
                the exclusive whole-SoC runs of collab and training, which
                write SetCpuUtil(1.0)/(0.0) absolutely.

  knobs          Every field of the checked config structs (KNOBS_STRUCTS:
                the resilience stack, the session tier, the autoscaler,
                training, serverless and the flagship builders' params)
                must be written by some file
                outside tests/ and outside the struct's own .h/.cc: a
                bench, example, perfbench workload or audit scenario. A
                field no workload sets is one value in use, so it belongs
                as a named constant in the .cc; a settable copy doubles the
                configurations to test and documents a choice nobody makes.
                Writes are `a.b.field =` chains and `Type{.field = ...}`
                designated initializers; a chain's root is typed from a
                declaration in the same file, and a nested write such as
                `config.gray.tick =` counts for the innermost struct (and
                sets every struct member along the way). Any write counts,
                whatever its value: the rule checks writes, not distinct
                values, so a field that every workload writes with its
                default value still passes.

  suppression    Every `lint:allow` marker must be well-formed and name a
                rule that exists: a typo like `lint:allow(unit)` would
                otherwise silently suppress nothing while looking like it
                does, and a stale marker survives refactors unnoticed.
                Unknown or malformed suppressions are findings themselves.

Suppress a finding by appending `// lint:allow(<rule>)` to the offending
line, e.g. `// lint:allow(units)`.
"""

import argparse
import os
import re
import sys

# The deterministic zone: everything that runs inside a simulation, the
# session tier and load generators (src/trace) included. tools/detlint.py
# scans the same zone.
DETERMINISM_DIRS = ("src/sim", "src/sched", "src/core", "src/cluster",
                    "src/qos", "src/workload", "src/net", "src/trace")

# Each pattern is (regex, human-readable reason).
DETERMINISM_PATTERNS = [
    (re.compile(r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"),
     "std::chrono clocks read host time; use Simulator::Now()"),
    (re.compile(r"\b(std::)?(rand|srand|rand_r)\s*\("),
     "C rand() is hidden global state; use src/base/rng.h"),
    (re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic; seed Rng explicitly"),
    (re.compile(r"\bmt19937(_64)?\b"),
     "std::mt19937 distributions are implementation-defined; use src/base/rng.h"),
    (re.compile(r"\b(gettimeofday|clock_gettime|localtime|gmtime)\s*\("),
     "wall-clock time breaks reproducibility; use Simulator::Now()"),
    (re.compile(r"\btime\s*\(\s*(NULL|nullptr|0)\s*\)"),
     "wall-clock time breaks reproducibility; use Simulator::Now()"),
]

# double parameters named like unit-typed quantities. `per` names are
# ratios (e.g. celsius_per_watt) with no unit type, so they are exempt.
UNIT_NAME = re.compile(
    r"\bdouble\s+(\w*(?:watt|second|sec|joule|byte|millis|micros|nanos)\w*)")
RATIO_HINT = re.compile(r"per", re.IGNORECASE)

# Raw stdout writes. The lookbehind spares snprintf/vsnprintf (buffer
# formatting, no stream); fprintf is only flagged when aimed at stdout, so
# stderr logging stays legal.
STDIO_PATTERNS = [
    (re.compile(r"(?:std::)?(?<![A-Za-z0-9_])(?:printf|puts|putchar)\s*\("),
     "library code must not write to stdout; return data, take a "
     "std::ostream&, or record through src/obs"),
    (re.compile(r"std::cout"),
     "library code must not write to std::cout; return data, take a "
     "std::ostream&, or record through src/obs"),
    (re.compile(r"fprintf\s*\(\s*stdout\b"),
     "library code must not write to stdout; return data, take a "
     "std::ostream&, or record through src/obs"),
]

# Layers that must never depend on workload implementations. src/core is
# also restricted, but a few files legitimately orchestrate workloads.
LAYERING_FORBIDDEN_DIRS = ("src/base", "src/sim", "src/sched", "src/qos",
                           "src/core")
LAYERING_INCLUDE = re.compile(r'#include\s+"(src/workload/[^"]+)"')
LAYERING_ALLOWLIST = {
    # The autoscaler and overload controllers act on workloads by design;
    # the benchmark suite exists to drive them end to end.
    "src/core/autoscaler.h",
    "src/core/autoscaler.cc",
    "src/core/overload.h",
    "src/core/overload.cc",
    "src/core/benchmark_suite.h",
    "src/core/benchmark_suite.cc",
    # The determinism-audit scenarios are scaled-down flagship experiments
    # and drive every service, like the benchmark suite.
    "src/core/det_scenarios.h",
    "src/core/det_scenarios.cc",
    # The flagship builders those scenarios and the benches share.
    "src/core/flagships.h",
    "src/core/flagships.cc",
}

# Queue caps belong to the qos admission layer: service code must not grow
# its own. Lines that go through an admission() accessor (or the qos layer
# itself) are the sanctioned path.
ADMISSION_DIRS = ("src/workload", "src/trace")
ADMISSION_PATTERN = re.compile(r"\b(SetMaxQueue|max_queue_)\b")

# Arrival processes belong to src/trace/loadgen and retry pacing to
# src/base/retry.h: a service (or a trace generator) drawing its own
# exponential or Poisson inter-arrival gaps is an invisible second load
# generator.
ARRIVAL_DIRS = ("src/workload", "src/core", "src/qos", "src/sched",
                "src/trace")
ARRIVAL_HOMES = ("src/trace/loadgen.h", "src/trace/loadgen.cc")
ARRIVAL_PATTERN = re.compile(
    r"[\w\])>]\s*(?:\.|->)\s*(Exponential|Poisson)\s*\(")

# Per-SoC evidence aggregation belongs to the gray-failure scorer. Flag
# stats containers keyed by SoC id and stats objects whose names say
# "per-SoC latency/error"; the sanctioned path is SetAttemptObserver ->
# DegradationScorer::Report.
GRAY_EVIDENCE_DIRS = ("src/workload",)
GRAY_EVIDENCE_PATTERNS = [
    (re.compile(r"\b(?:std::)?(?:unordered_)?map\s*<\s*int\s*,\s*"
                r"(?:RunningStats|QuantileSketch)\b"),
     "per-SoC stats map in workload code; report attempts through the "
     "service's AttemptObserver and let src/core/graydetect.h's "
     "DegradationScorer own the per-SoC evidence"),
    (re.compile(r"\b(?:RunningStats|QuantileSketch)\b[^;\n(]*"
                r"\b\w*(?:per_soc|by_soc|soc_)\w*(?:latenc|error|p9\d)\w*"),
     "per-SoC latency/error aggregate in workload code; report attempts "
     "through the service's AttemptObserver and let src/core/graydetect.h's "
     "DegradationScorer own the per-SoC evidence"),
    (re.compile(r"\b(?:RunningStats|QuantileSketch)\b[^;\n(]*"
                r"\b\w*(?:latenc|error|p9\d)\w*(?:_per_soc|_by_soc)\w*"),
     "per-SoC latency/error aggregate in workload code; report attempts "
     "through the service's AttemptObserver and let src/core/graydetect.h's "
     "DegradationScorer own the per-SoC evidence"),
]

# Terminal request bookkeeping belongs to the RequestLedger: SLO
# registration, terminal flow closes and client notification in a service
# are hand-kept copies of it.
LIFECYCLE_DIRS = ("src/workload",)
LIFECYCLE_PATTERNS = [
    (re.compile(r"\bslos\s*\.\s*Register\s*\("),
     "per-service SLO registration"),
    (re.compile(r"\bTraceRequest(?:Complete|Drop)\s*\("),
     "hand-closed request flow trace"),
    (re.compile(r"\b\w*client_observer\w*\s*\("),
     "direct ClientObserver call"),
]

# Event labels are interned and must be cheap: flag per-event string
# construction in the argument list of a Schedule* call. The callback
# lambda's body is blanked before matching, so dynamic text inside the
# callback itself stays legal.
HOT_LABEL_CALL = re.compile(r"\b(?:ScheduleAt|ScheduleAfter)\s*\(")
HOT_LABEL_DYNAMIC = [
    (re.compile(r"\bto_string\s*\("),
     "std::to_string builds a fresh std::string per event"),
    (re.compile(r"\bStrCat\s*\("),
     "StrCat builds a fresh std::string per event"),
    (re.compile(r"\bstd::string\s*[({]"),
     "constructing a std::string per event"),
    (re.compile(r"\.append\s*\("),
     "appending to a std::string per event"),
    (re.compile(r"\"\s*\+|\+\s*\""),
     "string concatenation builds a fresh std::string per event"),
]

# SoC-side charges belong to the capacity view: outside src/hw and
# src/sched no code writes utilization or codec sessions or reads a SoC's
# fail epoch. Allowlisted files may make only the named calls.
CHARGES_OWNERS = ("src/hw/", "src/sched/")
CHARGES_PATTERN = re.compile(
    r"\b(AddCpuUtil|SetCpuUtil|SetGpuUtil|SetDspUtil|AddCodecSession|"
    r"RemoveCodecSession|fail_count)\s*\(")
CHARGES_ALLOWLIST = {
    # Exclusive whole-SoC runs: every SoC of the run is saturated, then
    # idled, by an absolute write.
    "src/workload/dl/collab.cc": {"SetCpuUtil"},
    "src/workload/dl/training.cc": {"SetCpuUtil"},
}

# The config structs whose every field some workload must set, each with
# the path (without extension) of its own .h/.cc.
KNOBS_STRUCTS = {
    "FaultConfig": "src/cluster/fault",
    "HealthConfig": "src/core/health",
    "DegradationScorerConfig": "src/core/graydetect",
    "GrayFailureConfig": "src/core/graydetect",
    "ClusterOverloadConfig": "src/core/overload",
    "SessionTierConfig": "src/trace/session",
    "AutoscalerConfig": "src/core/autoscaler",
    "TrainingConfig": "src/workload/dl/training",
    "ServerlessConfig": "src/workload/serverless/serverless",
    "RideoutDayParams": "src/core/flagships",
    "OverloadStormParams": "src/core/flagships",
    "GrayStormParams": "src/core/flagships",
}
KNOBS_STRUCT_DEF = re.compile(r"\bstruct\s+(\w+)\s*(?::[^{;]*)?\{")
KNOBS_FIELD = re.compile(
    r"^(?:mutable\s+)?(?:const\s+)?(?P<type>[A-Za-z_][\w:]*(?:<[^;]*>)?)"
    r"\s*[*&]?\s+(?P<name>\w+)\s*(?:=.*)?$", re.S)
KNOBS_NOT_FIELD = re.compile(
    r"^\s*(?:static|using|enum|struct|class|friend|return|typedef|public|"
    r"private|protected)\b|\boperator\b")
KNOBS_CHAIN = r"\b\w+(?:\s*(?:\.|->)\s*\w+)+"
KNOBS_WRITE = re.compile(
    r"(" + KNOBS_CHAIN + r")\s*(?:=(?!=)|\.\s*(?:push_back|emplace_back)\s*\()")

ALLOW = re.compile(r"//\s*lint:allow\(([a-z-]+)\)")
ALLOW_MARKER = re.compile(r"lint:allow")
ALLOW_ANY = re.compile(r"//\s*lint:allow\(([^)]*)\)")

KNOWN_RULES = frozenset({
    "determinism", "units", "guards", "include-cc", "stdio", "layering",
    "admission", "gray-evidence", "hot-label", "arrival", "lifecycle",
    "charges", "knobs",
})

IGNORED_DIRS = {".git", "build", "third_party", ".github"}


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving offsets/newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i:i + 2]
        if two == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "'" and re.search(r"(?<![\w.])\d[\w']*$", text[:i]):
            out.append(c)  # A digit separator, as in 1'000'000.
            i += 1
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(c + " " * (j - i - 2) + (c if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def matching_brace(code_text, open_idx):
    """Index of the brace closing the one at open_idx, or None."""
    depth = 0
    for i in range(open_idx, len(code_text)):
        if code_text[i] == "{":
            depth += 1
        elif code_text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return None


def struct_fields(code_text):
    """{struct: {field: (type, offset)}} for every struct defined in
    code_text. Each nested brace block (a method body or brace initializer)
    becomes a statement break, so what is left splits into declarations."""
    structs = {}
    for m in KNOBS_STRUCT_DEF.finditer(code_text):
        close = matching_brace(code_text, m.end() - 1)
        if close is None:
            continue
        body = list(code_text[m.end():close])
        i = 0
        while i < len(body):
            if body[i] == "{":
                end = matching_brace(code_text, m.end() + i) - m.end()
                body[i:end + 1] = [";"] + [" "] * (end - i)
                i = end
            i += 1
        fields = {}
        pos = 0
        for stmt in "".join(body).split(";"):
            decl = stmt.split("=", 1)[0]
            f = KNOBS_FIELD.match(stmt.strip())
            if f is not None and "(" not in decl and \
                    not KNOBS_NOT_FIELD.search(stmt):
                lead = len(stmt) - len(stmt.lstrip())
                offset = m.end() + pos + lead + f.start("name")
                fields[f.group("name")] = (f.group("type"), offset)
            pos += len(stmt) + 1
        structs[m.group(1)] = fields
    return structs


def allowed(raw_line, rule):
    m = ALLOW.search(raw_line)
    return m is not None and m.group(1) == rule


class Linter:
    def __init__(self, root):
        self.root = root
        self.findings = []

    def report(self, path, lineno, rule, message):
        self.findings.append(f"{path}:{lineno}: [{rule}] {message}")

    def lint_determinism(self, path, raw_lines, code_lines):
        if not path.startswith(DETERMINISM_DIRS):
            return
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            for pattern, reason in DETERMINISM_PATTERNS:
                if pattern.search(code) and not allowed(raw, "determinism"):
                    self.report(path, lineno, "determinism", reason)

    def lint_units(self, path, raw_lines, code_text):
        if not (path.startswith("src/") and path.endswith(".h")):
            return
        for m in UNIT_NAME.finditer(code_text):
            name = m.group(1)
            if RATIO_HINT.search(name):
                continue
            # Only function parameters: the declaration must sit inside an
            # unbalanced '(' — struct fields and locals are at depth 0.
            depth = (code_text.count("(", 0, m.start()) -
                     code_text.count(")", 0, m.start()))
            if depth <= 0:
                continue
            lineno = code_text.count("\n", 0, m.start()) + 1
            if allowed(raw_lines[lineno - 1], "units"):
                continue
            self.report(
                path, lineno, "units",
                f"raw `double {name}` parameter in a public header; use the "
                "matching src/base/units.h type (Power/Duration/Energy/"
                "DataSize)")

    def lint_guards(self, path, raw_lines, code_text):
        if not (path.startswith("src/") and path.endswith(".h")):
            return
        want = path.upper().replace("/", "_").replace(".", "_") + "_"
        m = re.search(r"#ifndef\s+(\S+)", code_text)
        if m is None:
            self.report(path, 1, "guards", f"missing include guard {want}")
            return
        lineno = code_text.count("\n", 0, m.start()) + 1
        if m.group(1) != want and not allowed(raw_lines[lineno - 1], "guards"):
            self.report(path, lineno, "guards",
                        f"include guard {m.group(1)} should be {want}")

    def lint_stdio(self, path, raw_lines, code_lines):
        if not path.startswith("src/"):
            return
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            for pattern, reason in STDIO_PATTERNS:
                if pattern.search(code) and not allowed(raw, "stdio"):
                    self.report(path, lineno, "stdio", reason)

    def lint_layering(self, path, raw_lines, code_lines):
        if not path.startswith(LAYERING_FORBIDDEN_DIRS):
            return
        if path in LAYERING_ALLOWLIST:
            return
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            # Quoted include paths are blanked in the stripped text, so
            # match the raw line — gated on the stripped line still holding
            # the directive, which drops commented-out includes.
            if "#include" not in code:
                continue
            m = LAYERING_INCLUDE.search(raw)
            if m and not allowed(raw, "layering"):
                self.report(
                    path, lineno, "layering",
                    f"{path.split('/', 2)[0]}/{path.split('/')[1]} must not "
                    f"include workload code ({m.group(1)}); express the "
                    "dependency through src/sched or src/cluster interfaces")

    def lint_admission(self, path, raw_lines, code_lines):
        if not path.startswith(ADMISSION_DIRS):
            return
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            m = ADMISSION_PATTERN.search(code)
            if m is None or "admission" in code:
                continue
            if allowed(raw, "admission"):
                continue
            self.report(
                path, lineno, "admission",
                f"`{m.group(1)}` outside the qos admission path; queue caps "
                "are owned by src/qos/admission.h — configure them through "
                "the service's admission() accessor")

    def lint_arrival(self, path, raw_lines, code_lines):
        if not path.startswith(ARRIVAL_DIRS) or path in ARRIVAL_HOMES:
            return
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            m = ARRIVAL_PATTERN.search(code)
            if m is None or allowed(raw, "arrival"):
                continue
            self.report(
                path, lineno, "arrival",
                f"ad-hoc `{m.group(1)}()` draw outside src/trace/loadgen; "
                "arrival processes live in src/trace/loadgen.h "
                "(OpenLoopSource/RateProcess::NextArrival), retry pacing in "
                "src/base/retry.h — drive load through a seeded source "
                "instead of a private inter-arrival loop")

    def lint_gray_evidence(self, path, raw_lines, code_lines):
        if not path.startswith(GRAY_EVIDENCE_DIRS):
            return
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            for pattern, reason in GRAY_EVIDENCE_PATTERNS:
                if pattern.search(code) and not allowed(raw, "gray-evidence"):
                    self.report(path, lineno, "gray-evidence", reason)
                    break

    def lint_lifecycle(self, path, raw_lines, code_lines):
        if not path.startswith(LIFECYCLE_DIRS):
            return
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            for pattern, what in LIFECYCLE_PATTERNS:
                if pattern.search(code) and not allowed(raw, "lifecycle"):
                    self.report(
                        path, lineno, "lifecycle",
                        f"{what} in service code; terminal request "
                        "bookkeeping (outcome counts, SLO feed, client "
                        "notification, breaker rule, flow close) is owned by "
                        "src/qos/request_ledger.h -- go through the "
                        "service's RequestLedger")
                    break

    def lint_charges(self, path, raw_lines, code_lines):
        if not path.startswith("src/") or path.startswith(CHARGES_OWNERS):
            return
        allowed_calls = CHARGES_ALLOWLIST.get(path, set())
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            for m in CHARGES_PATTERN.finditer(code):
                if m.group(1) in allowed_calls or allowed(raw, "charges"):
                    continue
                self.report(
                    path, lineno, "charges",
                    f"`{m.group(1)}()` outside src/hw and src/sched; charge "
                    "a SoC through SocCapacityView::Reserve, give it back "
                    "with Release(reservation) (its result says whether a "
                    "failure wiped the charge), and ask FailedSince() "
                    "before that")
                break

    def lint_knobs(self, files, checked=None):
        """`files` maps every scanned path to (raw_lines, code_text);
        `checked` maps struct name to its own path without extension."""
        checked = KNOBS_STRUCTS if checked is None else checked
        structs = {}
        for path, (_, code_text) in files.items():
            if path.startswith("src/") and path.endswith(".h"):
                structs.update(struct_fields(code_text))
        decl = re.compile(
            r"\b(" + "|".join(map(re.escape, sorted(structs))) +
            r")\s*[&*]?\s+(\w+)\s*(?=[;=,){\[(])") if structs else None
        written = set()

        def resolve(chain, owner):
            """The (struct, field) pairs a member chain names when its root
            has type `owner`, outermost first."""
            parts, pairs = re.split(r"\s*(?:\.|->)\s*", chain), []
            for part in parts[1:]:
                fields = structs.get(owner, {})
                if part not in fields:
                    break
                pairs.append((owner, part))
                owner = fields[part][0]
            return pairs

        def record(path, targets):
            written.update(t for t in targets
                           if t[0] in checked and
                           not path.startswith(checked[t[0]] + "."))

        for path, (_, code_text) in sorted(files.items()):
            if path.startswith("tests/") or decl is None:
                continue
            decls = [(m.start(), m.group(2), m.group(1))
                     for m in decl.finditer(code_text)]
            for m in KNOBS_WRITE.finditer(code_text):
                # The chain's root is typed by its nearest declaration.
                root = re.match(r"\w+", m.group(1)).group(0)
                found = [t for pos, var, t in decls
                         if pos < m.start() and var == root]
                record(path, resolve(m.group(1), found[-1] if found else None))
            # Designated initializers: Type{.field = value, ...}.
            for m in re.finditer(r"\b(\w+)\s*(?:\w+\s*)?(?:=\s*)?\{",
                                 code_text):
                if m.group(1) not in checked:
                    continue
                inner = code_text[m.end():matching_brace(code_text,
                                                         m.end() - 1)]
                record(path, [(m.group(1), d.group(1)) for d in
                              re.finditer(r"(?:^|,)\s*\.(\w+)\s*=", inner)])

        for name, base in sorted(checked.items()):
            raw_lines, code_text = files.get(base + ".h", ([], ""))
            fields = struct_fields(code_text)
            if name not in fields:
                self.report(base + ".h", 1, "knobs",
                            f"struct {name} is listed in KNOBS_STRUCTS but "
                            "not defined here; update the list")
                continue
            for field, (_, offset) in fields[name].items():
                if (name, field) in written:
                    continue
                lineno = code_text.count("\n", 0, offset) + 1
                if allowed(raw_lines[lineno - 1], "knobs"):
                    continue
                self.report(
                    base + ".h", lineno, "knobs",
                    f"{name}::{field} is set by no file outside tests/ and "
                    f"{base}.h/.cc; with one value in use it is a named "
                    f"constant in {base}.cc (a public static constexpr "
                    "where a test must name it), not a setting")

    def lint_hot_label(self, path, raw_lines, code_text):
        if not path.startswith("src/"):
            return
        engine = path.startswith("src/sim/")
        raw_text = "\n".join(raw_lines)
        for call in HOT_LABEL_CALL.finditer(code_text):
            open_idx = call.end() - 1
            depth, close_idx = 0, None
            for i in range(open_idx, len(code_text)):
                if code_text[i] == "(":
                    depth += 1
                elif code_text[i] == ")":
                    depth -= 1
                    if depth == 0:
                        close_idx = i
                        break
            if close_idx is None:
                continue
            call_lineno = code_text.count("\n", 0, call.start()) + 1
            if not engine and self.call_arg_count(
                    code_text, open_idx, close_idx) < 3:
                if not allowed(raw_lines[call_lineno - 1], "hot-label"):
                    self.report(
                        path, call_lineno, "hot-label",
                        "unlabeled Schedule* call: pass a static label "
                        "with the layer's prefix (\"soc.boot\"), so the "
                        "event is named in divergence reports and its host "
                        "time has a layer")
                continue
            # Reconstruct the argument text from the raw source (labels are
            # string literals, blanked in code_text), but blank everything
            # inside braces — lambda callback bodies are not label
            # expressions. Paren/brace depth is tracked on the stripped
            # text so literals cannot unbalance it.
            pieces = []
            brace_depth = 0
            for i in range(open_idx + 1, close_idx):
                if code_text[i] == "{":
                    brace_depth += 1
                if brace_depth == 0:
                    pieces.append(raw_text[i])
                else:
                    pieces.append("\n" if raw_text[i] == "\n" else " ")
                if code_text[i] == "}":
                    brace_depth = max(0, brace_depth - 1)
            args_text = "".join(pieces)
            for pattern, reason in HOT_LABEL_DYNAMIC:
                m = pattern.search(args_text)
                if m is None:
                    continue
                lineno = code_text.count(
                    "\n", 0, open_idx + 1 + m.start()) + 1
                if (allowed(raw_lines[lineno - 1], "hot-label") or
                        allowed(raw_lines[call_lineno - 1], "hot-label")):
                    continue
                self.report(
                    path, lineno, "hot-label",
                    f"dynamic label at a Schedule* call site: {reason}; "
                    "labels are interned per unique string — pass a static "
                    "literal and put per-event detail in trace span args")
                break

    @staticmethod
    def call_arg_count(code_text, open_idx, close_idx):
        """Arguments of the call whose parentheses sit at open_idx and
        close_idx: top-level commas plus one (literals are blanked, and
        commas inside parentheses, brackets or braces are nested)."""
        depth, commas = 0, 0
        for c in code_text[open_idx + 1:close_idx]:
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
            elif c == "," and depth == 0:
                commas += 1
        return commas + 1

    def lint_suppressions(self, path, raw_lines):
        for lineno, raw in enumerate(raw_lines, 1):
            if not ALLOW_MARKER.search(raw):
                continue
            m = ALLOW_ANY.search(raw)
            if m is None:
                self.report(
                    path, lineno, "suppression",
                    "malformed lint:allow marker; write "
                    "`// lint:allow(<rule>)`")
            elif m.group(1) not in KNOWN_RULES:
                self.report(
                    path, lineno, "suppression",
                    f"lint:allow names unknown rule `{m.group(1)}`; known "
                    f"rules: {', '.join(sorted(KNOWN_RULES))}")

    def lint_include_cc(self, path, raw_lines, code_lines):
        for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
            if (re.search(r'#include\s+"[^"]+\.cc"', code)
                    and not allowed(raw, "include-cc")):
                self.report(path, lineno, "include-cc",
                            "never #include a .cc file")

    def run(self):
        files = {}
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = [d for d in sorted(dirnames)
                           if d not in IGNORED_DIRS and
                           not d.startswith("build")]
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp")):
                    continue
                full = os.path.join(dirpath, name)
                path = os.path.relpath(full, self.root).replace(os.sep, "/")
                with open(full, encoding="utf-8") as f:
                    text = f.read()
                code_text = strip_comments_and_strings(text)
                raw_lines = text.split("\n")
                code_lines = code_text.split("\n")
                files[path] = (raw_lines, code_text)
                self.lint_determinism(path, raw_lines, code_lines)
                self.lint_units(path, raw_lines, code_text)
                self.lint_guards(path, raw_lines, code_text)
                self.lint_stdio(path, raw_lines, code_lines)
                self.lint_layering(path, raw_lines, code_lines)
                self.lint_admission(path, raw_lines, code_lines)
                self.lint_arrival(path, raw_lines, code_lines)
                self.lint_gray_evidence(path, raw_lines, code_lines)
                self.lint_lifecycle(path, raw_lines, code_lines)
                self.lint_charges(path, raw_lines, code_lines)
                self.lint_hot_label(path, raw_lines, code_text)
                self.lint_include_cc(path, raw_lines, code_lines)
                self.lint_suppressions(path, raw_lines)
        self.lint_knobs(files)
        return self.findings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root to lint")
    args = parser.parse_args()
    findings = Linter(os.path.abspath(args.root)).run()
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} lint finding(s). Suppress intentional "
              "cases with `// lint:allow(<rule>)`.", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
