// Command-line wiring for the examples: a tiny parser for the shared
// observability flags so every example accepts
//
//   --trace-out=PATH     write a Perfetto/chrome://tracing JSON trace
//   --metrics-out=PATH   write a metrics snapshot (.jsonl => one per line)
//   --slo-out=PATH       write the SLO burn-rate alert timeline as JSON
//   --digest-out=PATH    write the run's final state digest as JSON
//                        (the determinism contract: same seed, same digest
//                        -- see "Determinism analysis" in the README)
//
// Usage in an example's main():
//
//   ObsFlags flags = ParseObsFlags(argc, argv);
//   Simulator sim(seed);
//   ApplyObsFlags(flags, &sim.obs());     // Enables tracing if requested.
//   ...run the scenario...
//   SOC_CHECK(FlushObsFlags(flags, sim.obs()).ok());

#ifndef SRC_OBS_FLAGS_H_
#define SRC_OBS_FLAGS_H_

#include <string>

#include "src/base/result.h"
#include "src/obs/obs.h"

namespace soccluster {

struct ObsFlags {
  std::string trace_out;    // Empty: tracing stays disabled.
  std::string metrics_out;  // Empty: no metrics snapshot.
  std::string slo_out;      // Empty: no SLO alert timeline.
  std::string digest_out;   // Empty: no digest file.

  bool trace_requested() const { return !trace_out.empty(); }
  bool metrics_requested() const { return !metrics_out.empty(); }
  bool slo_requested() const { return !slo_out.empty(); }
  bool digest_requested() const { return !digest_out.empty(); }
};

// Parses `--trace-out=`/`--metrics-out=` (also the two-token `--trace-out
// PATH` form) and ignores unrecognized arguments.
ObsFlags ParseObsFlags(int argc, char** argv);

// Enables the tracer when a trace was requested.
void ApplyObsFlags(const ObsFlags& flags, Observability* obs);

// Writes the requested outputs. A ".jsonl" metrics path selects the
// line-oriented format. The SLO timeline is evaluated and stamped at
// `now` (the run's final sim time). Returns the first failure.
Status FlushObsFlags(const ObsFlags& flags, const Observability& obs,
                     SimTime now = SimTime::Zero());

// Writes `digest` to flags.digest_out as `{"state_digest": "<hex16>"}`
// (no-op when the flag is unset). Callers fold the digest themselves --
// typically Simulator::DigestState plus each service's DigestState -- so
// this layer stays independent of the sim.
Status FlushDigestFlag(const ObsFlags& flags, uint64_t digest);

// The flag surface for analytic benches (no Simulator, no registry):
// --metrics-out gets a copy of the BenchReport JSON, --digest-out a digest
// folded over the report (name, params, metric bit patterns). The trace
// and SLO flags are accepted but have nothing to write.
class BenchReport;
Status FlushReportFlags(const ObsFlags& flags, const BenchReport& report);

}  // namespace soccluster

#endif  // SRC_OBS_FLAGS_H_
