// Total-cost-of-ownership analysis (§6, Table 4): CapEx breakdown by
// component, OpEx as electricity (with PUE overhead), 36-month
// amortization, and throughput-per-cost (TpC) normalization (Table 5).

#ifndef SRC_COST_TCO_H_
#define SRC_COST_TCO_H_

#include <string>
#include <vector>

#include "src/base/units.h"

namespace soccluster {

enum class ServerKind {
  kEdgeWithGpu = 0,   // Intel Xeon + 8x NVIDIA A40.
  kEdgeWithoutGpu = 1,  // The same chassis minus the GPUs.
  kSocCluster = 2,
};

const char* ServerKindName(ServerKind kind);
std::vector<ServerKind> AllServerKinds();

struct CapExItem {
  std::string name;
  double cost_usd = 0.0;
};

struct TcoBreakdown {
  ServerKind kind = ServerKind::kEdgeWithGpu;
  std::vector<CapExItem> capex_items;
  double total_capex_usd = 0.0;
  double monthly_capex_usd = 0.0;
  Power avg_peak_power;
  double monthly_kwh = 0.0;
  double monthly_electricity_usd = 0.0;  // Compute cost only.
  double monthly_pue_overhead_usd = 0.0;
  double monthly_opex_usd = 0.0;
  double monthly_tco_usd = 0.0;
};

class TcoModel {
 public:
  // Retail CapEx breakdown, Table 4.
  static std::vector<CapExItem> CapExFor(ServerKind kind);
  // The paper's measured average peak power (live V5 transcoding, Table 4).
  static Power DefaultAvgPeakPower(ServerKind kind);

  // Full breakdown for a server at its measured average peak power, under
  // the paper's Table 4 parameters (36-month amortization, 50% duty,
  // $0.0786/kWh, PUE 2.0).
  static TcoBreakdown Compute(ServerKind kind);

  // Throughput normalized to monthly TCO (Table 5 rows).
  static double ThroughputPerCost(double throughput,
                                  const TcoBreakdown& tco) {
    return throughput / tco.monthly_tco_usd;
  }
};

}  // namespace soccluster

#endif  // SRC_COST_TCO_H_
