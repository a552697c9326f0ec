// Tests for the fleet descriptions (Table 2) and the discrete-event
// cluster simulator, including the Fig. 2 speedup series properties.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cluster/fleet.hpp"
#include "cluster/simulator.hpp"

namespace phodis::cluster {
namespace {

// ---------- fleets -----------------------------------------------------------

TEST(Fleet, Table2RowsSumTo150Machines) {
  std::uint32_t total = 0;
  for (const auto& row : table2_rows()) total += row.count;
  EXPECT_EQ(total, 150u);
  EXPECT_EQ(table2_fleet().size(), 150u);
}

TEST(Fleet, Table2RowContentsMatchPaper) {
  const auto& rows = table2_rows();
  ASSERT_EQ(rows.size(), 8u);
  EXPECT_EQ(rows[0].count, 91u);
  EXPECT_DOUBLE_EQ(rows[0].mflops_lo, 28.0);
  EXPECT_DOUBLE_EQ(rows[0].mflops_hi, 31.0);
  EXPECT_EQ(rows[0].cpu, "P3 600MHz");
  EXPECT_EQ(rows[1].count, 50u);
  EXPECT_EQ(rows[1].ram_mb, 512u);
  EXPECT_EQ(rows[3].os, "Windows XP");
  EXPECT_EQ(rows[7].os, "FreeBSD");
}

TEST(Fleet, Table2RatesStayInsideRowRanges) {
  const auto fleet = table2_fleet();
  // First 91 nodes are the P3 600MHz row with rates in [28, 31].
  for (std::size_t i = 0; i < 91; ++i) {
    EXPECT_GE(fleet[i].mflops, 28.0);
    EXPECT_LE(fleet[i].mflops, 31.0);
  }
}

TEST(Fleet, Table2IsDeterministic) {
  const auto a = table2_fleet();
  const auto b = table2_fleet();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_DOUBLE_EQ(a[i].mflops, b[i].mflops);
  }
}

TEST(Fleet, HomogeneousFleetIsUniform) {
  const auto fleet = homogeneous_p4_fleet(60);
  EXPECT_EQ(fleet.size(), 60u);
  for (const auto& node : fleet) {
    EXPECT_DOUBLE_EQ(node.mflops, 200.0);
    EXPECT_EQ(node.ram_mb, 512u);
  }
  EXPECT_THROW(homogeneous_p4_fleet(0), std::invalid_argument);
}

TEST(Fleet, AggregateMflops) {
  EXPECT_DOUBLE_EQ(aggregate_mflops(homogeneous_p4_fleet(10)), 2000.0);
  // Table 2 aggregate: dominated by the 50 P4s and 91 P3s.
  const double total = aggregate_mflops(table2_fleet());
  EXPECT_GT(total, 10000.0);
  EXPECT_LT(total, 20000.0);
}

// ---------- simulator config --------------------------------------------------

ClusterConfig small_config(std::size_t nodes = 4) {
  ClusterConfig config;
  config.fleet = homogeneous_p4_fleet(nodes);
  config.total_photons = 10'000'000;
  config.chunk_photons = 500'000;
  config.load.min_availability = 1.0;
  config.load.max_availability = 1.0;
  return config;
}

TEST(ClusterConfig, Validation) {
  ClusterConfig config = small_config();
  EXPECT_NO_THROW(config.validate());
  config.fleet.clear();
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.total_photons = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.load.min_availability = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = small_config();
  config.cost.flops_per_photon = 0.0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(LoadModel, Validation) {
  LoadModel load;
  load.min_availability = 0.8;
  load.max_availability = 0.7;
  EXPECT_THROW(load.validate(), std::invalid_argument);
  load.max_availability = 1.5;
  EXPECT_THROW(load.validate(), std::invalid_argument);
}

// ---------- simulation behaviour ----------------------------------------------

TEST(Simulator, IsDeterministic) {
  ClusterConfig config = small_config();
  config.load.min_availability = 0.7;  // stochastic but seeded
  const ClusterReport a = ClusterSimulator(config).run();
  const ClusterReport b = ClusterSimulator(config).run();
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.tasks, b.tasks);
}

TEST(Simulator, CompletesAllTasks) {
  const ClusterConfig config = small_config();
  const ClusterReport report = ClusterSimulator(config).run();
  EXPECT_EQ(report.tasks, 20u);  // 10M / 500k
  std::uint64_t photons = 0;
  for (const auto& node : report.nodes) photons += node.photons_computed;
  EXPECT_EQ(photons, config.total_photons);
}

TEST(Simulator, MakespanShrinksWithMoreNodes) {
  const double t1 = ClusterSimulator(small_config(1)).run().makespan_s;
  const double t4 = ClusterSimulator(small_config(4)).run().makespan_s;
  const double t16 = ClusterSimulator(small_config(16)).run().makespan_s;
  EXPECT_GT(t1, t4);
  EXPECT_GT(t4, t16);
}

TEST(Simulator, SingleNodeMakespanMatchesHandComputation) {
  ClusterConfig config = small_config(1);
  config.network.latency_s = 0.0;
  config.network.bandwidth_bps = 1e18;  // zero transfer time
  config.cost.assign_cost_s = 0.0;
  config.cost.merge_cost_s = 0.0;
  const ClusterReport report = ClusterSimulator(config).run();
  // 10M photons * 1e5 flop / (200 Mflop/s) = 1e12 / 2e8 = 5000 s.
  EXPECT_NEAR(report.makespan_s, 5000.0, 1e-6);
}

TEST(Simulator, ServerBusyTimeCountsAssignAndMerge) {
  ClusterConfig config = small_config(2);
  const ClusterReport report = ClusterSimulator(config).run();
  const double expected =
      report.tasks * (config.cost.assign_cost_s + config.cost.merge_cost_s);
  EXPECT_NEAR(report.server_busy_s, expected, 1e-9);
  EXPECT_GT(report.server_utilisation(), 0.0);
  EXPECT_LT(report.server_utilisation(), 1.0);
}

TEST(Simulator, StochasticLoadSlowsThingsDown) {
  ClusterConfig dedicated = small_config(8);
  ClusterConfig loaded = small_config(8);
  loaded.load.min_availability = 0.5;
  loaded.load.max_availability = 0.7;
  EXPECT_LT(ClusterSimulator(dedicated).run().makespan_s,
            ClusterSimulator(loaded).run().makespan_s);
}

TEST(Simulator, HeterogeneousFleetFasterNodesDoMoreWork) {
  ClusterConfig config;
  config.fleet = table2_fleet();
  config.total_photons = 100'000'000;
  config.chunk_photons = 500'000;
  config.load.min_availability = 1.0;
  config.load.max_availability = 1.0;
  const ClusterReport report = ClusterSimulator(config).run();
  // A P4 2.4GHz (~200 Mflop/s, index 91..140) must complete more photons
  // than a P2 266MHz (15 Mflop/s, index 141..144).
  EXPECT_GT(report.nodes[100].photons_computed,
            report.nodes[142].photons_computed);
}

TEST(Simulator, StaticScheduleRunsToCompletion) {
  ClusterConfig config = small_config(4);
  config.mode = ScheduleMode::kStatic;
  const ClusterReport report = ClusterSimulator(config).run();
  EXPECT_EQ(report.tasks, 20u);
}

TEST(Simulator, StaticGreedyCloseToDynamicOnDedicatedFleet) {
  // With no load variance, static greedy and dynamic self-scheduling land
  // within a chunk-duration of each other.
  ClusterConfig config = small_config(5);
  dist::GreedyScheduler greedy;
  const double dynamic_t = ClusterSimulator(config).run().makespan_s;
  const double static_t =
      ClusterSimulator(config).run_static(greedy).makespan_s;
  EXPECT_NEAR(dynamic_t, static_t, dynamic_t * 0.3);
}

// ---------- speedup series (Fig. 2 properties) ---------------------------------

TEST(SpeedupSeries, IsMonotoneAndEfficient) {
  ClusterConfig base = small_config(1);
  // Enough chunks that each of 60 processors gets >= 13 pulls; with only
  // ~3 pulls each, the end-of-run straggler tail alone costs ~15%.
  base.total_photons = 200'000'000;
  base.chunk_photons = 250'000;
  const auto series = speedup_series(base, 60, {1, 2, 4, 8, 16, 32, 60});
  ASSERT_EQ(series.size(), 7u);
  EXPECT_NEAR(series[0].speedup, 1.0, 1e-9);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i].speedup, series[i - 1].speedup);
  }
  for (const auto& point : series) {
    EXPECT_GT(point.efficiency, 0.85);
    EXPECT_LE(point.efficiency, 1.0 + 1e-9);
  }
}

TEST(SpeedupSeries, EfficiencyAt60IsNearPaperValue) {
  // The paper reports >= 97% efficiency at 60 homogeneous processors.
  ClusterConfig base = small_config(1);
  base.total_photons = 1'000'000'000;
  base.chunk_photons = 1'000'000;
  const auto series = speedup_series(base, 60, {60});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_GT(series[0].efficiency, 0.95);
  EXPECT_LE(series[0].efficiency, 1.0);
}

TEST(SpeedupSeries, SkipsInvalidCounts) {
  const auto series = speedup_series(small_config(1), 10, {0, 5, 100});
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].processors, 5u);
}

TEST(Simulator, NodeUtilisationIsReported) {
  const ClusterReport report = ClusterSimulator(small_config(4)).run();
  EXPECT_GT(report.mean_node_utilisation(), 0.5);
  EXPECT_LE(report.mean_node_utilisation(), 1.0);
}

// ---------- bit-for-bit pins --------------------------------------------------
// Exact outputs of the simulator on four configurations, pinned with
// EXPECT_EQ on the doubles: the leasing, the event order and the load
// stream draws must reproduce them to the last bit. A refactor of the
// simulator or of the scheduling code it drives must leave every value
// here unedited.

struct Pinned {
  double makespan_s = 0.0;
  double server_busy_s = 0.0;
  std::vector<std::uint64_t> tasks;    ///< per node
  std::vector<std::uint64_t> photons;  ///< per node
};

void expect_pinned(const ClusterReport& report, const Pinned& expected) {
  EXPECT_EQ(report.makespan_s, expected.makespan_s);
  EXPECT_EQ(report.server_busy_s, expected.server_busy_s);
  ASSERT_EQ(report.nodes.size(), expected.tasks.size());
  ASSERT_EQ(report.nodes.size(), expected.photons.size());
  for (std::size_t i = 0; i < report.nodes.size(); ++i) {
    EXPECT_EQ(report.nodes[i].tasks_completed, expected.tasks[i]) << i;
    EXPECT_EQ(report.nodes[i].photons_computed, expected.photons[i]) << i;
  }
}

/// 65 Table 2 nodes from the end of the P3 row on: P3s, P4s, P2s and the
/// rest, with a 100k remainder chunk at the end of the plan.
ClusterConfig mixed_static_config() {
  ClusterConfig config;
  const std::vector<NodeSpec> table2 = table2_fleet();
  config.fleet.assign(table2.begin() + 85, table2.end());
  config.total_photons = 60'100'000;
  config.chunk_photons = 250'000;
  config.mode = ScheduleMode::kStatic;
  return config;  // default non-dedicated load, seed 2006
}

TEST(SimulatorPinned, Table2FleetDynamic) {
  ClusterConfig config;
  config.fleet = table2_fleet();
  config.total_photons = 100'100'000;  // 400 full chunks + a 100k one
  config.chunk_photons = 250'000;
  const Pinned expected{
      .makespan_s = 2244.1334998304619,
      .server_busy_s = 80.199999999999974,
      .tasks = {
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 1, 1, 1, 1, 1,
          1, 1, 1, 5, 5, 6, 5, 6,
          5, 5, 6, 5, 5, 5, 6, 6,
          5, 6, 6, 6, 5, 6, 6, 6,
          6, 6, 6, 6, 6, 6, 6, 6,
          6, 6, 6, 6, 6, 6, 6, 6,
          6, 6, 6, 6, 6, 6, 7, 6,
          6, 6, 7, 6, 7, 1, 1, 1,
          1, 5, 1, 1, 3, 3},
      .photons = {
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 250000, 250000, 250000, 250000, 250000,
          250000, 250000, 250000, 1250000, 1250000, 1500000, 1250000, 1500000,
          1250000, 1250000, 1500000, 1250000, 1250000, 1250000, 1350000, 1500000,
          1250000, 1500000, 1500000, 1500000, 1250000, 1500000, 1500000, 1500000,
          1500000, 1500000, 1500000, 1500000, 1500000, 1500000, 1500000, 1500000,
          1500000, 1500000, 1500000, 1500000, 1500000, 1500000, 1500000, 1500000,
          1500000, 1500000, 1500000, 1500000, 1500000, 1500000, 1750000, 1500000,
          1500000, 1500000, 1750000, 1500000, 1750000, 250000, 250000, 250000,
          250000, 1250000, 250000, 250000, 750000, 750000},
  };
  expect_pinned(ClusterSimulator(config).run(), expected);
}

TEST(SimulatorPinned, SpeedupSeriesOnHomogeneousP4Fleet) {
  ClusterConfig base;
  base.fleet = homogeneous_p4_fleet(1);
  base.total_photons = 200'000'000;
  base.chunk_photons = 250'000;
  const auto series = speedup_series(base, 60, {1, 15, 60});
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].processors, 1u);
  EXPECT_EQ(series[0].makespan_s, 118596.81884117518);
  EXPECT_EQ(series[0].speedup, 1.0);
  EXPECT_EQ(series[0].efficiency, 1.0);
  EXPECT_EQ(series[1].processors, 15u);
  EXPECT_EQ(series[1].makespan_s, 7987.2372641097145);
  EXPECT_EQ(series[1].speedup, 14.848290456336455);
  EXPECT_EQ(series[1].efficiency, 0.9898860304224304);
  EXPECT_EQ(series[2].processors, 60u);
  EXPECT_EQ(series[2].makespan_s, 2074.5973548976531);
  EXPECT_EQ(series[2].speedup, 57.166186277638417);
  EXPECT_EQ(series[2].efficiency, 0.95276977129397367);
}

TEST(SimulatorPinned, StaticGreedy) {
  dist::GreedyScheduler greedy;
  const Pinned expected{
      .makespan_s = 770.54055851209898,
      .server_busy_s = 48.199999999999733,
      .tasks = {
          0, 0, 0, 0, 0, 0, 4, 4,
          4, 4, 4, 4, 4, 4, 4, 4,
          4, 4, 4, 4, 4, 4, 5, 5,
          5, 5, 5, 5, 5, 5, 5, 5,
          5, 5, 5, 5, 5, 5, 5, 5,
          5, 5, 5, 5, 5, 5, 5, 5,
          5, 5, 5, 5, 5, 5, 5, 5,
          0, 0, 0, 0, 3, 0, 1, 1,
          2},
      .photons = {
          0, 0, 0, 0, 0, 0, 1000000, 1000000,
          1000000, 1000000, 1000000, 1000000, 1000000, 1000000, 1000000, 1000000,
          1000000, 1000000, 1000000, 1000000, 1000000, 1000000, 1250000, 1250000,
          1250000, 1250000, 1250000, 1250000, 1250000, 1250000, 1250000, 1250000,
          1250000, 1250000, 1250000, 1250000, 1250000, 1250000, 1250000, 1250000,
          1250000, 1250000, 1250000, 1250000, 1250000, 1250000, 1250000, 1250000,
          1250000, 1250000, 1250000, 1250000, 1250000, 1250000, 1250000, 1250000,
          0, 0, 0, 0, 750000, 0, 100000, 250000,
          500000},
  };
  expect_pinned(ClusterSimulator(mixed_static_config()).run_static(greedy),
                expected);
}

TEST(SimulatorPinned, StaticGeneticAtFixedSeed) {
  dist::GaScheduler::Params params;
  params.seed = 7;
  params.generations = 40;
  params.seed_with_greedy = false;
  dist::GaScheduler genetic(params);
  const Pinned expected{
      .makespan_s = 1277.4324750930436,
      .server_busy_s = 48.199999999999697,
      .tasks = {
          1, 0, 1, 0, 0, 0, 4, 7,
          3, 3, 2, 6, 4, 6, 7, 5,
          3, 4, 3, 4, 7, 3, 4, 4,
          3, 5, 3, 8, 3, 4, 5, 3,
          5, 3, 6, 5, 8, 6, 5, 5,
          3, 6, 7, 5, 4, 8, 4, 2,
          8, 3, 4, 7, 3, 3, 4, 4,
          0, 0, 0, 0, 2, 1, 0, 2,
          3},
      .photons = {
          250000, 0, 250000, 0, 0, 0, 850000, 1750000,
          750000, 750000, 500000, 1500000, 1000000, 1500000, 1750000, 1250000,
          750000, 1000000, 750000, 1000000, 1750000, 750000, 1000000, 1000000,
          750000, 1250000, 750000, 2000000, 750000, 1000000, 1250000, 750000,
          1250000, 750000, 1500000, 1250000, 2000000, 1500000, 1250000, 1250000,
          750000, 1500000, 1750000, 1250000, 1000000, 2000000, 1000000, 500000,
          2000000, 750000, 1000000, 1750000, 750000, 750000, 1000000, 1000000,
          0, 0, 0, 0, 500000, 250000, 0, 500000,
          750000},
  };
  expect_pinned(ClusterSimulator(mixed_static_config()).run_static(genetic),
                expected);
}

}  // namespace
}  // namespace phodis::cluster
