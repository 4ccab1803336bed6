#include "tune/model_ranker.hpp"

#include <algorithm>

#include "obs/accounting.hpp"

namespace tb::tune {

void rank_candidates(std::vector<Candidate>& candidates, const Problem& p,
                     const topo::MachineSpec& machine) {
  const perfmodel::NodeModel model(machine);
  for (Candidate& c : candidates)
    c.predicted_mlups =
        obs::predicted_solver_mlups(c.cfg, p.op, model, p.nx, p.ny);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.predicted_mlups > b.predicted_mlups;
                   });
}

std::vector<Candidate> shortlist(const std::vector<Candidate>& ranked,
                                 int k) {
  if (k <= 0 || static_cast<std::size_t>(k) >= ranked.size()) return ranked;
  return {ranked.begin(), ranked.begin() + k};
}

}  // namespace tb::tune
