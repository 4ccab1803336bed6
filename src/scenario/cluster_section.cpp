#include "scenario/cluster_section.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/obs.hpp"
#include "topo/fabric.hpp"

namespace tb::scenario {

namespace json = util::json;

namespace {

int positive_int(const char* key, const json::Value& v) {
  const int n = v.as_int();
  if (n < 1)
    throw std::invalid_argument(std::string("cluster: \"") + key +
                                "\" must be >= 1");
  return n;
}

std::vector<std::string> string_list(const char* key, const json::Value& v) {
  std::vector<std::string> out;
  if (v.is_array()) {
    for (const json::Value& item : v.as_array())
      out.push_back(item.as_string());
    if (out.empty())
      throw std::invalid_argument(std::string("cluster: \"") + key +
                                  "\" list must not be empty");
  } else {
    out.push_back(v.as_string());
  }
  return out;
}

std::vector<int> int_list(const char* key, const json::Value& v) {
  std::vector<int> out;
  if (v.is_array()) {
    for (const json::Value& item : v.as_array())
      out.push_back(positive_int(key, item));
    if (out.empty())
      throw std::invalid_argument(std::string("cluster: \"") + key +
                                  "\" list must not be empty");
  } else {
    out.push_back(positive_int(key, v));
  }
  return out;
}

}  // namespace

void ClusterSection::consume(const json::Value& value) {
  const std::size_t first = rows_.size();
  if (value.is_array()) {
    for (const json::Value& group : value.as_array()) run_group(group);
  } else {
    run_group(value);
  }
  if (obs::enabled())
    obs::append_run_rows(obs::default_rundb_path(),
                         {rows_.begin() + static_cast<std::ptrdiff_t>(first),
                          rows_.end()});
}

void ClusterSection::run_group(const json::Value& group) {
  simnet::event::ClusterSweepSpec spec;
  std::vector<std::string> topologies{spec.topology};
  for (const auto& [key, v] : group.as_object()) {
    if (key == "topology") {
      topologies = string_list("topology", v);
    } else if (key == "ranks") {
      spec.ranks = int_list("ranks", v);
    } else if (key == "mode") {
      const std::string& mode = v.as_string();
      if (mode != "weak" && mode != "strong")
        throw std::invalid_argument(
            "cluster: \"mode\" must be weak or strong");
      spec.weak = mode == "weak";
    } else if (key == "n") {
      spec.n = positive_int("n", v);
    } else if (key == "halo") {
      spec.halo = positive_int("halo", v);
    } else if (key == "epochs") {
      spec.epochs = positive_int("epochs", v);
    } else if (key == "op" || key == "operator") {
      spec.op = v.as_string();
    } else if (key == "proc_lups") {
      spec.proc_lups = v.as_number();
      if (spec.proc_lups <= 0.0)
        throw std::invalid_argument("cluster: \"proc_lups\" must be > 0");
    } else if (key == "ppn") {
      spec.fabric.ppn = positive_int("ppn", v);
    } else {
      throw std::invalid_argument("cluster: unknown key \"" + key +
                                  "\" (check for typos)");
    }
  }

  for (const std::string& topology : topologies) {
    spec.topology = topology;
    simnet::event::SweepResult result = simnet::event::run_sweep(spec);
    if (verbose_) {
      std::printf("cluster %s %s n=%d halo=%d op=%s\n",
                  spec.weak ? "weak" : "strong", topology.c_str(), spec.n,
                  spec.halo, spec.op.c_str());
      for (const simnet::event::SweepPoint& pt : result.points)
        std::printf(
            "  ranks %6d  grid %4dx%4dx%4d  epoch %.3e s  "
            "%9.1f GLUP/s  eff %5.1f%%  %7.2f M events/s\n",
            pt.ranks, pt.global_n[0], pt.global_n[1], pt.global_n[2],
            pt.epoch_seconds, pt.glups, pt.efficiency * 100.0,
            pt.events_per_sec / 1e6);
    }
    std::vector<obs::RunRow> rows = simnet::event::sweep_rows(result);
    rows_.insert(rows_.end(), rows.begin(), rows.end());
    results_.push_back(std::move(result));
  }
}

}  // namespace tb::scenario
