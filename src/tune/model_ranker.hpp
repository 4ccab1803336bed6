// Model ranking: scores every candidate schedule with the analytic
// performance models (perfmodel/model_api.hpp) and prunes the search
// space to a shortlist worth the cost of real timed probes.
//
// The ranking is the load-bearing use of the paper's Sec. 1.4 models:
// instead of brute-force timing the full space, the bandwidth model
// predicts which (variant, threads, T, block, du) points can win on
// this machine, and only those get measured.
#pragma once

#include <vector>

#include "topo/machine.hpp"
#include "tune/plan.hpp"

namespace tb::tune {

/// Fills predicted_mlups (obs::predicted_solver_mlups, the same score
/// run rows carry) for every candidate and stable-sorts the list
/// best-first (ties keep enumeration order, so ranking is reproducible).
void rank_candidates(std::vector<Candidate>& candidates, const Problem& p,
                     const topo::MachineSpec& machine);

/// First `k` candidates of a ranked list (all of them when k <= 0 or the
/// list is shorter).
[[nodiscard]] std::vector<Candidate> shortlist(
    const std::vector<Candidate>& ranked, int k);

}  // namespace tb::tune
