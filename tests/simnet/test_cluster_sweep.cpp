// Tests for the cluster scaling sweeps: the event-engine sweep driver,
// its validation against perfmodel::evaluate_cluster, and the "cluster"
// scenario section (including the cases-optional config relaxation).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "perfmodel/cluster_model.hpp"
#include "scenario/cluster_section.hpp"
#include "scenario/scenario_config.hpp"
#include "simnet/event/cluster_sweep.hpp"
#include "util/json.hpp"

namespace tb {
namespace {

TEST(ClusterSweep, WeakScalingProducesSanePoints) {
  simnet::event::ClusterSweepSpec spec;
  spec.ranks = {8, 27, 64};
  spec.n = 16;
  spec.epochs = 2;
  for (const char* topology : {"fat-tree", "torus", "cloud"}) {
    spec.topology = topology;
    const simnet::event::SweepResult result =
        simnet::event::run_sweep(spec);
    ASSERT_EQ(result.points.size(), 3u) << topology;
    for (const simnet::event::SweepPoint& pt : result.points) {
      EXPECT_EQ(pt.proc_dims[0] * pt.proc_dims[1] * pt.proc_dims[2],
                pt.ranks);
      for (int d = 0; d < 3; ++d)  // weak: interior grows with the grid
        EXPECT_EQ(pt.global_n[static_cast<std::size_t>(d)],
                  spec.n * pt.proc_dims[static_cast<std::size_t>(d)] + 2);
      EXPECT_GT(pt.epoch_seconds, 0.0) << topology;
      EXPECT_GT(pt.glups, 0.0) << topology;
      EXPECT_GT(pt.efficiency, 0.0) << topology;
      EXPECT_LE(pt.efficiency, 1.0 + 1e-12) << topology;
      EXPECT_GT(pt.events, 0u);
    }
  }
}

TEST(ClusterSweep, StrongScalingSplitsAFixedGrid) {
  simnet::event::ClusterSweepSpec spec;
  spec.weak = false;
  spec.n = 96;
  spec.ranks = {1, 8};
  const simnet::event::SweepResult result = simnet::event::run_sweep(spec);
  ASSERT_EQ(result.points.size(), 2u);
  for (const simnet::event::SweepPoint& pt : result.points)
    for (int d = 0; d < 3; ++d)
      EXPECT_EQ(pt.global_n[static_cast<std::size_t>(d)], spec.n + 2);
  // 8 ranks must beat 1 rank on the epoch, though not by the full 8x.
  EXPECT_LT(result.points[1].epoch_seconds, result.points[0].epoch_seconds);
  EXPECT_LE(result.points[1].efficiency,
            result.points[0].efficiency + 1e-12);
}

// The event engine and the closed perfmodel::cluster_model describe the
// same machine (the fat-tree defaults of both mirror the NetworkModel's
// QDR fat tree), but carry different effect sets (copy-stream funneling
// vs link contention).  They must land in the same ballpark: within 30%
// on weak-scaling epochs at 1 rank per node.
TEST(ClusterSweep, AgreesWithClosedClusterModel) {
  simnet::event::ClusterSweepSpec spec;
  spec.ranks = {8, 64, 512};
  spec.n = 32;
  spec.halo = 4;
  const simnet::event::SweepResult result = simnet::event::run_sweep(spec);
  for (const simnet::event::SweepPoint& pt : result.points) {
    perfmodel::ClusterRun run;
    run.nodes = pt.ranks;
    run.ppn = 1;
    run.grid = spec.n;
    run.weak = true;
    run.halo = spec.halo;
    run.proc_lups = spec.proc_lups;
    run.field_bytes = 8.0;
    const perfmodel::ClusterResult model =
        perfmodel::evaluate_cluster(run, {});
    EXPECT_NEAR(pt.glups, model.glups, 0.30 * model.glups)
        << pt.ranks << " ranks";
  }
}

TEST(ClusterSweep, RowsCarryModeledTagsAndNames) {
  simnet::event::ClusterSweepSpec spec;
  spec.ranks = {8};
  spec.n = 8;
  spec.epochs = 1;
  const std::vector<obs::RunRow> rows =
      simnet::event::sweep_rows(simnet::event::run_sweep(spec));
  ASSERT_EQ(rows.size(), 3u);  // perf + efficiency + event rate
  std::set<std::string> names;
  for (const obs::RunRow& row : rows) {
    names.insert(row.name);
    bool modeled = false, sim_event = false;
    for (const auto& [k, v] : row.tags) {
      modeled |= k == "modeled" && v == "1";
      sim_event |= k == "sim" && v == "event";
    }
    EXPECT_TRUE(modeled) << row.name;
    EXPECT_TRUE(sim_event) << row.name;
  }
  EXPECT_TRUE(names.count("weak/fat-tree/8"));
  EXPECT_TRUE(names.count("eff/weak/fat-tree/8"));
  EXPECT_TRUE(names.count("events/fat-tree/8"));
}

TEST(ClusterSweep, RejectsBadSpecs) {
  simnet::event::ClusterSweepSpec spec;
  spec.ranks = {0};
  EXPECT_THROW(simnet::event::run_sweep(spec), std::invalid_argument);
  spec.ranks = {8};
  spec.topology = "hypercube";
  EXPECT_THROW(simnet::event::run_sweep(spec), std::invalid_argument);
}

// ---- the "cluster" scenario section -----------------------------------

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Loads a consumer-only scenario file (no "cases" key at all — must load
// fine) into `section` and checks the two sweeps it adds.
void consume_two_sweeps(scenario::ClusterSection& section) {
  const std::size_t before = section.results().size();
  scenario::ScenarioConfig config;
  config.register_consumer(&section);
  config.load_text(R"({
    "name": "sweeps",
    "cluster": {
      "topology": ["fat-tree", "cloud"],
      "ranks": [8, 27],
      "mode": "weak",
      "n": 8,
      "epochs": 1
    }
  })");
  EXPECT_EQ(config.cases().size(), 0u);
  ASSERT_EQ(section.results().size(), before + 2u);  // one per topology
  EXPECT_EQ(section.results()[before].spec.topology, "fat-tree");
  EXPECT_EQ(section.results()[before + 1].spec.topology, "cloud");
  ASSERT_EQ(section.results()[before].points.size(), 2u);
  EXPECT_EQ(section.rows().size(), (before + 2u) * 2u * 3u);
}

// Sweep rows go to the run database, and only when telemetry is on:
// exactly that call's rows (not the section's earlier ones), all tagged
// as modeled.  The section runs in an empty working directory that must
// stay empty: no per-bench row file is written next to the database.
TEST(ClusterSection, ConsumesSweepGroupsFromScenarioText) {
  const std::filesystem::path home = std::filesystem::current_path();
  const std::filesystem::path tmp(::testing::TempDir());
  const std::string pid = std::to_string(::getpid());
  const std::filesystem::path dir = tmp / ("tb_cluster_cwd_" + pid);
  const std::string path = (tmp / ("tb_cluster_rundb_" + pid + ".jsonl"))
                               .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::remove(path.c_str());
  ASSERT_EQ(::setenv("TB_RUNDB", path.c_str(), 1), 0);
  std::filesystem::current_path(dir);

  scenario::ClusterSection section;
  consume_two_sweeps(section);
  EXPECT_TRUE(read_lines(path).empty()) << "telemetry off appends nothing";

  obs::set_enabled(true);
  consume_two_sweeps(section);
  obs::set_enabled(false);

  std::filesystem::current_path(home);
  ::unsetenv("TB_RUNDB");
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);

  const std::vector<std::string> lines = read_lines(path);
  std::remove(path.c_str());
  EXPECT_EQ(lines.size(), 12u);
  for (const std::string& line : lines) {
    const util::json::Value row = util::json::parse(line);
    EXPECT_EQ(row.get("schema").as_int(), 1);
    EXPECT_EQ(row.get("tags").get("modeled").as_string(), "1") << line;
  }
}

TEST(ClusterSection, RejectsUnknownKeysAndBadModes) {
  scenario::ClusterSection section;
  scenario::ScenarioConfig config;
  config.register_consumer(&section);
  EXPECT_THROW(
      config.load_text(R"({"cluster": {"ranks": 8, "topo": "torus"}})"),
      std::invalid_argument);
  EXPECT_THROW(
      config.load_text(R"({"cluster": {"ranks": 8, "mode": "diagonal"}})"),
      std::invalid_argument);
}

TEST(ClusterSection, MissingCasesStillThrowsWithoutConsumerSection) {
  scenario::ScenarioConfig config;
  EXPECT_THROW(config.load_text(R"({"name": "empty"})"),
               std::invalid_argument);
}

}  // namespace
}  // namespace tb
