#include "src/cost/tco.h"

namespace soccluster {

namespace {

// Table 4 parameters.
// 3-year server lifetime [42,55,59].
constexpr int kAmortizationMonths = 36;
// Operate at avg peak power 50% of time.
constexpr double kUtilization = 0.5;
// U.S. industrial average [9].
constexpr double kElectricityUsdPerKwh = 0.0786;
// Edge PUE (vs ~1.5 in cloud DCs) [42].
constexpr double kPue = 2.0;

}  // namespace

const char* ServerKindName(ServerKind kind) {
  switch (kind) {
    case ServerKind::kEdgeWithGpu:
      return "Edge (W/ GPU)";
    case ServerKind::kEdgeWithoutGpu:
      return "Edge (W/O GPU)";
    case ServerKind::kSocCluster:
      return "SoC Cluster";
  }
  return "?";
}

std::vector<ServerKind> AllServerKinds() {
  return {ServerKind::kEdgeWithGpu, ServerKind::kEdgeWithoutGpu,
          ServerKind::kSocCluster};
}

std::vector<CapExItem> TcoModel::CapExFor(ServerKind kind) {
  // Retail purchase costs, Table 4.
  switch (kind) {
    case ServerKind::kEdgeWithGpu:
      return {{"Intel CPU", 2740.0},
              {"DRAM", 3540.0},
              {"Disk", 1220.0},
              {"8x NVIDIA A40 GPU", 35192.0},
              {"Others", 5544.0}};
    case ServerKind::kEdgeWithoutGpu:
      return {{"Intel CPU", 2740.0},
              {"DRAM", 3540.0},
              {"Disk", 1220.0},
              {"Others", 5544.0}};
    case ServerKind::kSocCluster:
      return {{"60x SoC", 24489.0},
              {"12x PCB", 7075.0},
              {"Ethernet Switch Board", 689.0},
              {"BMC", 1923.0},
              {"Others", 2104.0}};
  }
  return {};
}

Power TcoModel::DefaultAvgPeakPower(ServerKind kind) {
  // Table 4: sampled while live-transcoding V5 at full load.
  switch (kind) {
    case ServerKind::kEdgeWithGpu:
      return Power::Watts(1231.0);
    case ServerKind::kEdgeWithoutGpu:
      return Power::Watts(633.0);
    case ServerKind::kSocCluster:
      return Power::Watts(589.0);
  }
  return Power::Zero();
}

TcoBreakdown TcoModel::Compute(ServerKind kind) {
  const Power avg_peak_power = DefaultAvgPeakPower(kind);
  TcoBreakdown tco;
  tco.kind = kind;
  tco.capex_items = CapExFor(kind);
  for (const CapExItem& item : tco.capex_items) {
    tco.total_capex_usd += item.cost_usd;
  }
  tco.monthly_capex_usd = tco.total_capex_usd / kAmortizationMonths;

  tco.avg_peak_power = avg_peak_power;
  // Monthly kWh at kUtilization duty over a 30-day month.
  tco.monthly_kwh =
      avg_peak_power.watts() * kUtilization * 24.0 * 30.0 / 1000.0;
  tco.monthly_electricity_usd = tco.monthly_kwh * kElectricityUsdPerKwh;
  tco.monthly_pue_overhead_usd = tco.monthly_electricity_usd * (kPue - 1.0);
  tco.monthly_opex_usd =
      tco.monthly_electricity_usd + tco.monthly_pue_overhead_usd;
  tco.monthly_tco_usd = tco.monthly_capex_usd + tco.monthly_opex_usd;
  return tco;
}

}  // namespace soccluster
