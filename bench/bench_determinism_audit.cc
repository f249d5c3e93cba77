// Determinism audit over the five flagship scenarios (src/core/
// det_scenarios.h): each runs once under FIFO tie-break and N more times
// under seeded tie-break permutations; bit-identical state digests at
// every checkpoint certify the scenario independent of equal-timestamp
// dispatch order. A divergence is bisected to its first divergent window
// and the implicated event labels are printed (and written as a JSON
// report).
//
// Flags: --permutations=N   (default 8)
//        --scenario=NAME    (default: all five; an unknown name exits 2)
//        --report-out=PATH  divergence reports, one JSON object per line
//        --digest-out=PATH  per-scenario FIFO baseline digests as JSON

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/base/check.h"
#include "src/base/table.h"
#include "src/core/det_scenarios.h"
#include "src/sim/determinism.h"

namespace soccluster {
namespace {

int Run(int permutations, const std::string& only,
        const std::string& report_out, const std::string& digest_out) {
  const std::vector<DetScenarioSpec> scenarios = AllDetScenarios();
  if (!only.empty() &&
      std::none_of(scenarios.begin(), scenarios.end(),
                   [&only](const DetScenarioSpec& spec) {
                     return only == spec.name;
                   })) {
    // A typo must not certify nothing with exit 0.
    std::fprintf(stderr, "unknown --scenario=%s; valid names:", only.c_str());
    for (const DetScenarioSpec& spec : scenarios) {
      std::fprintf(stderr, " %s", spec.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  TextTable table({"scenario", "permutations", "digest", "verdict"});
  std::vector<DivergenceReport> reports;
  bool all_ok = true;
  for (const DetScenarioSpec& spec : scenarios) {
    if (!only.empty() && only != spec.name) {
      continue;
    }
    DeterminismAuditor auditor(spec.name, spec.make(), permutations);
    DivergenceReport report = auditor.Run();
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(report.baseline_digest));
    table.AddRow({spec.name, std::to_string(report.permutations_run), digest,
                  report.diverged ? "DIVERGED" : "order-independent"});
    if (report.diverged) {
      all_ok = false;
      std::fprintf(stderr, "[%s] %s\n  suspect labels:", report.scenario.c_str(),
                   report.detail.c_str());
      for (const std::string& label : report.suspect_labels) {
        std::fprintf(stderr, " '%s'", label.c_str());
      }
      std::fprintf(stderr, "\n");
    }
    reports.push_back(std::move(report));
  }
  std::fputs(table.Render().c_str(), stdout);

  if (!report_out.empty()) {
    std::ofstream out(report_out);
    SOC_CHECK(out.good()) << "cannot open " << report_out;
    for (const DivergenceReport& report : reports) {
      WriteDivergenceReportJson(report, out);
    }
  }
  if (!digest_out.empty()) {
    std::ofstream out(digest_out);
    SOC_CHECK(out.good()) << "cannot open " << digest_out;
    out << "{\n";
    for (size_t i = 0; i < reports.size(); ++i) {
      char digest[32];
      std::snprintf(digest, sizeof(digest), "%016llx",
                    static_cast<unsigned long long>(reports[i].baseline_digest));
      out << "  \"" << reports[i].scenario << "\": \"" << digest << "\""
          << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    out << "}\n";
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace soccluster

int main(int argc, char** argv) {
  int permutations = 8;
  std::string only;
  std::string report_out;
  std::string digest_out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--permutations=", 15) == 0) {
      permutations = std::atoi(arg + 15);
    } else if (std::strncmp(arg, "--scenario=", 11) == 0) {
      only = arg + 11;
    } else if (std::strncmp(arg, "--report-out=", 13) == 0) {
      report_out = arg + 13;
    } else if (std::strncmp(arg, "--digest-out=", 13) == 0) {
      digest_out = arg + 13;
    }
  }
  return soccluster::Run(permutations, only, report_out, digest_out);
}
