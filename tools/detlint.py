#!/usr/bin/env python3
"""Nondeterminism lint: the static half of the determinism analyzer.

The dynamic half (src/sim/determinism.h) certifies that concrete runs do
not depend on equal-timestamp dispatch order; this pass flags the source
patterns that *create* such dependence, before any run exists. It walks
the deterministic zone (lint.DETERMINISM_DIRS, shared with the base
linter's determinism rule) and reports:

  unordered-mutate      A range-for over a std::unordered_{map,set,...}
                        whose body mutates state, schedules events, or
                        calls out: hash-order iteration feeds an
                        order-sensitive effect, so the simulation depends
                        on pointer/hash layout. Iterate an ordered
                        container, sort keys first, or fold commutatively
                        (StateDigest::Unordered) and exempt the loop.

  unordered-float-accum A `+=`/`-=` accumulation into a float/double
                        inside such a loop: float addition does not
                        commute, so even a pure reduction is
                        order-sensitive in hash order.

  pointer-keyed         A std::map/std::set keyed by a raw pointer:
                        iteration order is address order, which varies
                        run to run. Key by a stable id instead.

  pointer-order         Ordering or hashing by address -- std::less<T*>,
                        std::hash<T*>, or a reinterpret_cast to
                        (u)intptr_t: addresses are not stable across
                        runs. Use stable ids.

  exempt-syntax         A `det:exempt` marker without a parenthesized,
                        non-empty reason. Exemptions are documentation;
                        a bare marker is a finding, not a suppression.

  stale-exempt          A well-formed `// det:exempt(<reason>)` on a line
                        this pass finds nothing on. Stale exemptions rot
                        into false confidence, so they are errors too.

Suppress a true finding by appending `// det:exempt(<reason>)` to the
flagged line, e.g.:

  for (const auto& [id, t] : pending_) {  // det:exempt(commutative fold)

Registered as the `lint.determinism` ctest; unit tests live in
tools/detlint_test.py.
"""

import argparse
import os
import re
import sys

import lint  # Shares the zone and the comment stripper.

RULES = ("unordered-mutate", "unordered-float-accum", "pointer-keyed",
         "pointer-order", "exempt-syntax", "stale-exempt")

EXEMPT = re.compile(r"//\s*det:exempt\(([^)]*)\)")
EXEMPT_MARKER = re.compile(r"det:exempt")

UNORDERED_DECL = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")

# std::map/std::set (ordered) keyed by a raw pointer. The key is the first
# template argument; `const T*`, `T *`, and nested `ns::T*` all match.
POINTER_KEYED = re.compile(
    r"\bstd::(?:map|set|multimap|multiset)\s*<\s*(?:const\s+)?"
    r"[\w:]+\s*\*")

POINTER_ORDER_PATTERNS = [
    (re.compile(r"\bstd::less\s*<[^<>]*\*\s*>"),
     "std::less over a pointer orders by address"),
    (re.compile(r"\bstd::greater\s*<[^<>]*\*\s*>"),
     "std::greater over a pointer orders by address"),
    (re.compile(r"\bstd::hash\s*<[^<>]*\*\s*>"),
     "std::hash over a pointer hashes the address"),
    (re.compile(r"reinterpret_cast\s*<\s*u?intptr_t\s*>"),
     "casting a pointer to an integer bakes the address into a value"),
]

# Effects that make hash-order iteration order-sensitive: scheduling,
# container mutation, RNG draws, or plain assignment/increment.
MUTATION_PATTERNS = [
    (re.compile(r"\bSchedule(?:At|After)?\s*\("), "schedules an event"),
    (re.compile(r"\.\s*(?:insert|emplace|emplace_back|push_back|push_front|"
                r"erase|pop_back|pop_front|clear|Add|Increment|Set\w*)\s*\("),
     "mutates state"),
    (re.compile(r"\b(?:Uniform|Exponential|Bernoulli|Gaussian|NextDouble|"
                r"LogNormal)\w*\s*\("), "draws randomness"),
    (re.compile(r"(?<![=!<>+\-*/%&|^])=(?![=])"), "assigns"),
    (re.compile(r"[+\-*/%&|^]=(?!=)"), "accumulates"),
    (re.compile(r"\+\+|--"), "increments"),
]

ACCUM = re.compile(r"(\w+)(?:\.\w+|\[[^\]]*\])?\s*[+\-]\*?=")

IGNORED_DIRS = lint.IGNORED_DIRS


def find_matching(text, open_pos, open_ch="{", close_ch="}"):
    """Index just past the brace matching text[open_pos], or len(text)."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def unordered_names(code_text):
    """Names declared (or aliased) with an unordered container type."""
    names = set()
    for m in UNORDERED_DECL.finditer(code_text):
        end = find_matching(code_text, m.end() - 1, "<", ">")
        # The declared name is the first identifier after the closing '>'
        # (skipping reference/pointer sigils); `using x = ...` puts the
        # name before the type instead.
        rest = code_text[end:end + 160]
        decl = re.match(r"[\s&*]*(\w+)", rest)
        if decl:
            names.add(decl.group(1))
        line_start = code_text.rfind("\n", 0, m.start()) + 1
        alias = re.match(r"\s*using\s+(\w+)\s*=",
                         code_text[line_start:m.start()])
        if alias:
            names.add(alias.group(1))
    return names


def float_names(code_text):
    """Names declared double/float (members, locals, params)."""
    return set(re.findall(r"\b(?:double|float)\s+(\w+)", code_text))


class DetLinter:
    def __init__(self, root):
        self.root = root
        self.findings = []
        # (path, lineno) pairs that produced a finding or carried a valid
        # suppression -- used to flag stale exemptions afterwards.
        self.flagged_lines = set()

    def report(self, path, lineno, rule, message, raw_lines):
        exempt = EXEMPT.search(raw_lines[lineno - 1])
        self.flagged_lines.add((path, lineno))
        if exempt and exempt.group(1).strip():
            return
        self.findings.append(f"{path}:{lineno}: [{rule}] {message}")

    def lint_unordered_loops(self, path, raw_lines, code_text, float_decls,
                             unordered):
        for m in re.finditer(r"\bfor\s*\(", code_text):
            close = find_matching(code_text, m.end() - 1, "(", ")")
            header = code_text[m.start():close]
            if ":" not in header:
                continue
            range_expr = header.rsplit(":", 1)[1].strip(" )\n")
            ids = re.findall(r"\w+", range_expr)
            if not ids or ids[-1] not in unordered:
                continue
            lineno = code_text.count("\n", 0, m.start()) + 1
            brace = code_text.find("{", close)
            semi = code_text.find(";", close)
            if brace >= 0 and (semi < 0 or brace < semi):
                body = code_text[brace:find_matching(code_text, brace)]
            else:
                body = code_text[close:semi + 1 if semi >= 0 else len(code_text)]
            accum = ACCUM.search(body)
            if accum and accum.group(1) in float_decls:
                self.report(
                    path, lineno, "unordered-float-accum",
                    f"float accumulation into `{accum.group(1)}` while "
                    f"iterating unordered container `{ids[-1]}`: float "
                    "addition does not commute, so the total depends on "
                    "hash order. Sort the keys or use "
                    "StateDigest::Unordered-style commutative folding",
                    raw_lines)
                continue
            for pattern, effect in MUTATION_PATTERNS:
                if pattern.search(body):
                    self.report(
                        path, lineno, "unordered-mutate",
                        f"loop over unordered container `{ids[-1]}` "
                        f"{effect} in its body: hash-order iteration makes "
                        "the effect order run-dependent. Iterate a sorted "
                        "copy of the keys, use an ordered container, or "
                        "exempt a provably commutative body",
                        raw_lines)
                    break

    def lint_pointer_keys(self, path, raw_lines, code_text):
        for m in POINTER_KEYED.finditer(code_text):
            lineno = code_text.count("\n", 0, m.start()) + 1
            self.report(
                path, lineno, "pointer-keyed",
                "ordered map/set keyed by a raw pointer iterates in address "
                "order, which varies run to run; key by a stable id",
                raw_lines)
        for pattern, reason in POINTER_ORDER_PATTERNS:
            for m in pattern.finditer(code_text):
                lineno = code_text.count("\n", 0, m.start()) + 1
                self.report(path, lineno, "pointer-order",
                            f"{reason}; addresses are not stable across "
                            "runs -- use a stable id", raw_lines)

    def lint_exempt_syntax(self, path, raw_lines):
        for lineno, raw in enumerate(raw_lines, 1):
            if not EXEMPT_MARKER.search(raw):
                continue
            m = EXEMPT.search(raw)
            if m is None or not m.group(1).strip():
                self.flagged_lines.add((path, lineno))
                self.findings.append(
                    f"{path}:{lineno}: [exempt-syntax] det:exempt requires "
                    "a parenthesized reason: `// det:exempt(<why this is "
                    "order-independent>)`")

    def check_stale_exempts(self, path, raw_lines):
        for lineno, raw in enumerate(raw_lines, 1):
            m = EXEMPT.search(raw)
            if (m and m.group(1).strip()
                    and (path, lineno) not in self.flagged_lines):
                self.findings.append(
                    f"{path}:{lineno}: [stale-exempt] det:exempt suppresses "
                    "nothing on this line; remove it or move it onto the "
                    "flagged line")

    def lint_file(self, path, text, header_text=""):
        code_text = lint.strip_comments_and_strings(text)
        raw_lines = text.split("\n")
        # Members are declared in the class header, so a .cc is linted with
        # its paired header's declarations in scope too.
        header_code = lint.strip_comments_and_strings(header_text)
        unordered = unordered_names(code_text) | unordered_names(header_code)
        float_decls = float_names(code_text) | float_names(header_code)
        self.lint_exempt_syntax(path, raw_lines)
        self.lint_unordered_loops(path, raw_lines, code_text, float_decls,
                                  unordered)
        self.lint_pointer_keys(path, raw_lines, code_text)
        self.check_stale_exempts(path, raw_lines)

    def run(self):
        for dirpath, dirnames, filenames in os.walk(self.root):
            dirnames[:] = [d for d in sorted(dirnames)
                           if d not in IGNORED_DIRS and
                           not d.startswith("build")]
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".cpp")):
                    continue
                full = os.path.join(dirpath, name)
                path = os.path.relpath(full, self.root).replace(os.sep, "/")
                if not path.startswith(lint.DETERMINISM_DIRS):
                    continue
                with open(full, encoding="utf-8") as f:
                    text = f.read()
                header_text = ""
                if not name.endswith(".h"):
                    header = re.sub(r"\.(cc|cpp)$", ".h", full)
                    if os.path.exists(header):
                        with open(header, encoding="utf-8") as f:
                            header_text = f.read()
                self.lint_file(path, text, header_text)
        return self.findings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root to lint")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args()
    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    findings = DetLinter(os.path.abspath(args.root)).run()
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} determinism finding(s). Suppress a "
              "verified-commutative case with `// det:exempt(<reason>)`.",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
