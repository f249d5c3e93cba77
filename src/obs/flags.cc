#include "src/obs/flags.h"

#include <cstdio>
#include <fstream>
#include <string_view>

#include "src/base/log.h"
#include "src/obs/bench_report.h"
#include "src/obs/export.h"

namespace soccluster {
namespace {

bool TakeFlag(std::string_view arg, std::string_view name, int argc,
              char** argv, int* i, std::string* out) {
  if (arg.rfind(name, 0) != 0) {
    return false;
  }
  std::string_view rest = arg.substr(name.size());
  if (rest.empty() && *i + 1 < argc) {
    *out = argv[*i + 1];
    ++*i;
    return true;
  }
  if (!rest.empty() && rest.front() == '=') {
    *out = std::string(rest.substr(1));
    return true;
  }
  return false;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

ObsFlags ParseObsFlags(int argc, char** argv) {
  ObsFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (TakeFlag(arg, "--trace-out", argc, argv, &i, &flags.trace_out)) {
      continue;
    }
    if (TakeFlag(arg, "--metrics-out", argc, argv, &i, &flags.metrics_out)) {
      continue;
    }
    if (TakeFlag(arg, "--slo-out", argc, argv, &i, &flags.slo_out)) {
      continue;
    }
    if (TakeFlag(arg, "--digest-out", argc, argv, &i, &flags.digest_out)) {
      continue;
    }
  }
  return flags;
}

void ApplyObsFlags(const ObsFlags& flags, Observability* obs) {
  if (flags.trace_requested()) {
    obs->tracer.Enable();
  }
}

Status FlushObsFlags(const ObsFlags& flags, const Observability& obs,
                     SimTime now) {
  if (flags.trace_requested()) {
    SOC_RETURN_IF_ERROR(WriteChromeTraceFile(obs, flags.trace_out));
    SOC_LOG(Info) << "trace written to " << flags.trace_out << " ("
                  << obs.tracer.spans().size() << " spans, "
                  << obs.tracer.dropped_spans() << " dropped)";
  }
  if (flags.metrics_requested()) {
    if (EndsWith(flags.metrics_out, ".jsonl")) {
      SOC_RETURN_IF_ERROR(WriteMetricsJsonlFile(obs.metrics, flags.metrics_out));
    } else {
      SOC_RETURN_IF_ERROR(WriteMetricsJsonFile(obs.metrics, flags.metrics_out));
    }
    SOC_LOG(Info) << "metrics written to " << flags.metrics_out << " ("
                  << obs.metrics.size() << " instruments)";
  }
  if (flags.slo_requested()) {
    SOC_RETURN_IF_ERROR(obs.slos.WriteJsonFile(flags.slo_out, now));
    SOC_LOG(Info) << "slo timeline written to " << flags.slo_out << " ("
                  << obs.slos.size() << " slos)";
  }
  return Status::Ok();
}

Status FlushDigestFlag(const ObsFlags& flags, uint64_t digest) {
  if (!flags.digest_requested()) {
    return Status::Ok();
  }
  std::ofstream out(flags.digest_out);
  if (!out.good()) {
    return Status::Internal("cannot open " + flags.digest_out);
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  out << "{\"state_digest\": \"" << hex << "\"}\n";
  out.flush();
  if (!out.good()) {
    return Status::Internal("failed writing state digest to " +
                            flags.digest_out);
  }
  SOC_LOG(Info) << "state digest " << hex << " written to "
                << flags.digest_out;
  return Status::Ok();
}

Status FlushReportFlags(const ObsFlags& flags, const BenchReport& report) {
  if (flags.metrics_requested()) {
    SOC_RETURN_IF_ERROR(report.WriteTo(flags.metrics_out));
    SOC_LOG(Info) << "bench report written to " << flags.metrics_out;
  }
  return FlushDigestFlag(flags, report.Digest());
}

}  // namespace soccluster
