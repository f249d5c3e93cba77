// Machine-readable bench output. Each bench/bench_*.cc constructs one
// BenchReport, records its parameters and headline metrics, and the report
// writes BENCH_<name>.json on destruction (or at WriteNow()), so the bench
// trajectory can be diffed run-over-run without scraping the text tables.
//
// Output directory: $SOC_BENCH_OUT_DIR when set, else the working directory.
//
// Headline benches also check their own claims through Claim(): a claim
// that does not hold prints "claim failed: <what>" to stderr, and
// ExitCode() turns any failure into the bench's exit status, so a ctest
// run of the bench fails. Claims never touch the JSON.
//
// Schema:
//   {"name": "...", "params": {"k": v, ...},
//    "metrics": [{"metric": "...", "value": <number>, "units": "..."}, ...]}

#ifndef SRC_OBS_BENCH_REPORT_H_
#define SRC_OBS_BENCH_REPORT_H_

#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"

namespace soccluster {

class BenchReport {
 public:
  explicit BenchReport(std::string name);
  ~BenchReport();
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  void SetParam(std::string key, std::string value);
  void SetParam(std::string key, double value);
  void SetParam(std::string key, int64_t value);

  void Add(std::string metric, double value, std::string units);

  // Checks one headline claim; when `holds` is false, prints
  // "claim failed: " and the printf-formatted description to stderr.
  void Claim(bool holds, const char* format, ...)
      __attribute__((format(printf, 3, 4)));
  // 1 once any claim has failed, else 0: the bench's exit status.
  int ExitCode() const { return claims_failed_ > 0 ? 1 : 0; }

  // Writes BENCH_<name>.json now; the destructor writes only if this was
  // never called (and swallows failures — a bench must not crash on a
  // read-only working directory).
  Status WriteNow();

  // Writes the same JSON to an explicit path (does not mark the default
  // report as written).
  Status WriteTo(const std::string& path) const;

  // Digest of the report contents: name, params, and metric values by bit
  // pattern. The determinism surface for analytic benches that have no
  // Simulator to fold a state digest from.
  uint64_t Digest() const;

  // Destination path for this report.
  std::string OutputPath() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string units;
  };

  std::string name_;
  std::vector<std::pair<std::string, std::string>> params_;  // Pre-encoded.
  std::vector<Metric> metrics_;
  int claims_failed_ = 0;
  bool written_ = false;
};

}  // namespace soccluster

#endif  // SRC_OBS_BENCH_REPORT_H_
