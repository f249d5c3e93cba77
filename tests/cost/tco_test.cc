#include "src/cost/tco.h"

#include <gtest/gtest.h>

namespace soccluster {
namespace {

TEST(TcoTest, CapExTotalsMatchTable4) {
  double edge = 0.0;
  for (const CapExItem& item : TcoModel::CapExFor(ServerKind::kEdgeWithGpu)) {
    edge += item.cost_usd;
  }
  EXPECT_DOUBLE_EQ(edge, 48236.0);
  double no_gpu = 0.0;
  for (const CapExItem& item :
       TcoModel::CapExFor(ServerKind::kEdgeWithoutGpu)) {
    no_gpu += item.cost_usd;
  }
  EXPECT_DOUBLE_EQ(no_gpu, 13044.0);
  double cluster = 0.0;
  for (const CapExItem& item : TcoModel::CapExFor(ServerKind::kSocCluster)) {
    cluster += item.cost_usd;
  }
  EXPECT_DOUBLE_EQ(cluster, 36280.0);
}

TEST(TcoTest, GpusDominateEdgeCapEx) {
  // Table 4: the 8 A40s are 73% of the GPU server's CapEx; SoCs+PCBs are
  // ~87% of the cluster's.
  const TcoBreakdown edge = TcoModel::Compute(ServerKind::kEdgeWithGpu);
  for (const CapExItem& item : edge.capex_items) {
    if (item.name.find("A40") != std::string::npos) {
      EXPECT_NEAR(item.cost_usd / edge.total_capex_usd, 0.73, 0.01);
    }
  }
  const TcoBreakdown cluster = TcoModel::Compute(ServerKind::kSocCluster);
  double soc_pcb = 0.0;
  for (const CapExItem& item : cluster.capex_items) {
    if (item.name.find("SoC") != std::string::npos ||
        item.name.find("PCB") != std::string::npos) {
      soc_pcb += item.cost_usd;
    }
  }
  EXPECT_NEAR(soc_pcb / cluster.total_capex_usd, 0.87, 0.01);
}

TEST(TcoTest, MonthlyTcoMatchesTable4) {
  // Table 4 bottom row: $1,410 / $399 / $1,042.
  EXPECT_NEAR(TcoModel::Compute(ServerKind::kEdgeWithGpu).monthly_tco_usd,
              1410.0, 3.0);
  EXPECT_NEAR(TcoModel::Compute(ServerKind::kEdgeWithoutGpu).monthly_tco_usd,
              399.0, 2.0);
  EXPECT_NEAR(TcoModel::Compute(ServerKind::kSocCluster).monthly_tco_usd,
              1042.0, 3.0);
}

TEST(TcoTest, ElectricityArithmeticMatchesPaperExample) {
  // §6 worked example: 1231 W at 50% for a month = 443 kWh -> ~$35, doubled
  // by PUE 2.0 to ~$70.
  const TcoBreakdown tco = TcoModel::Compute(ServerKind::kEdgeWithGpu);
  EXPECT_NEAR(tco.monthly_kwh, 443.0, 1.0);
  EXPECT_NEAR(tco.monthly_electricity_usd, 35.0, 0.5);
  EXPECT_NEAR(tco.monthly_pue_overhead_usd, 35.0, 0.5);
  EXPECT_NEAR(tco.monthly_opex_usd, 70.0, 1.0);
}

TEST(TcoTest, CapExDominatesTco) {
  // §6: OpEx is far below amortized CapEx for every server.
  for (ServerKind kind : AllServerKinds()) {
    const TcoBreakdown tco = TcoModel::Compute(kind);
    EXPECT_GT(tco.monthly_capex_usd, 5.0 * tco.monthly_opex_usd)
        << ServerKindName(kind);
  }
}

TEST(TcoTest, ParametersPropagate) {
  // Each Table 4 parameter reaches its line of the breakdown: 36-month
  // amortization, 50% duty at the measured 589 W, $0.0786/kWh, PUE 2.0.
  const TcoBreakdown tco = TcoModel::Compute(ServerKind::kSocCluster);
  EXPECT_NEAR(tco.monthly_capex_usd, tco.total_capex_usd / 36.0, 1e-9);
  EXPECT_NEAR(tco.monthly_kwh, 589.0 * 0.5 * 24.0 * 30.0 / 1000.0, 1e-9);
  EXPECT_NEAR(tco.monthly_electricity_usd, tco.monthly_kwh * 0.0786, 1e-9);
  EXPECT_NEAR(tco.monthly_pue_overhead_usd, tco.monthly_electricity_usd,
              1e-9);
}

TEST(TcoTest, ThroughputPerCost) {
  const TcoBreakdown tco = TcoModel::Compute(ServerKind::kSocCluster);
  // 780 V1 streams across the cluster -> ~0.748 streams/$ (Table 5).
  EXPECT_NEAR(TcoModel::ThroughputPerCost(780.0, tco), 0.748, 0.005);
}

}  // namespace
}  // namespace soccluster
