// tb_bench: one benchmark workload per process.
//
//   tb_bench --workload <jacobi_mem|scenario_mix|dist_hybrid|cluster_sim|host>
//            --seed N --seconds S [--smoke]
//
// Prints failed checks on stderr and, as the last line of stdout, one
// JSON object with the raw samples (per-pass peak RSS among them), the
// correctness checks and the host fingerprint; bench/suite/run.py turns
// it into metrics.  With TB_TELEMETRY=1 in the environment the run is
// traced: the workload adds its per-layer values, and the trace (bench.*
// spans plus the library's own) is written to $TB_TRACE.  "host"
// fingerprints and calibrates the machine and, traced, also takes the
// workload-independent layer probes.
//
// Exit status: 0 when every check passed, 1 when one failed, 2 on error.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace tb::bench;
  try {
    const tb::util::Args args(argc, argv);
    Options o;
    o.workload = args.get("workload", "");
    o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    o.seconds = args.get_double("seconds", 10.0);
    o.smoke = args.get_bool("smoke", false);
    o.traced = tb::obs::enabled();
    if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");

    const Tiers t = probe_tiers(o.smoke);
    Record rec;
    describe_host(t, rec);
    if (o.workload == "host") {
      calibrate_host(t, o.smoke, rec);
      if (o.traced) run_probes(o, t, rec);
    } else if (o.workload == "jacobi_mem") {
      run_jacobi_mem(o, t, rec);
    } else if (o.workload == "scenario_mix") {
      run_scenario_mix(o, t, rec);
    } else if (o.workload == "dist_hybrid") {
      run_dist_hybrid(o, t, rec);
    } else if (o.workload == "cluster_sim") {
      run_cluster_sim(o, t, rec);
    } else {
      throw std::invalid_argument("unknown --workload '" + o.workload +
                                  "' (jacobi_mem|scenario_mix|dist_hybrid|"
                                  "cluster_sim|host)");
    }
    if (o.traced) {
      tb::obs::Trace& trace = tb::obs::Trace::instance();
      rec.layer("obs.trace.dropped", static_cast<double>(trace.dropped()));
      rec.layer("obs.trace.spans", static_cast<double>(trace.recorded()));
      trace.stop();  // writes $TB_TRACE
    }
    std::printf("%s\n", rec.json(o).c_str());
    return rec.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tb_bench: %s\n", e.what());
    return 2;
  }
}
