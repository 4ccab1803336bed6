// Grid builders for scenario cases: initial conditions and the
// material/geometry auxiliary field a CaseSpec names symbolically.
//
// Deliberately deterministic functions of the spec alone (no RNG, no
// host state), so a scenario file pins its inputs bit-for-bit — the
// property the engine's bit-identity guarantee rests on.
#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/grid.hpp"
#include "scenario/scenario_config.hpp"

namespace tb::scenario {

/// The effective geometry kind after resolving "auto": varcoef gets the
/// slab material, the lbm operators their built-in cavity (no aux
/// grid), everything else runs bare.
[[nodiscard]] inline std::string resolve_geometry(const CaseSpec& spec) {
  if (spec.geometry != "auto") return spec.geometry;
  if (spec.op == "varcoef") return "slab";
  return "none";
}

/// Level-0 data per CaseSpec::initial:
///   pattern  — the deterministic test pattern every solver test uses
///   uniform  — all ones (LBM: uniform density rho = 1)
///   hot-face — zero bulk with a unit x = 0 face (the heat examples'
///              Dirichlet drive)
/// Every builder here writes z-slices on spec.threads threads; each cell
/// is a function of (i, j, k) alone, so the bits do not depend on them.
[[nodiscard]] inline core::Grid3 make_initial(const CaseSpec& spec) {
  core::Grid3 g(spec.nx, spec.ny, spec.nz);
  if (spec.initial == "pattern") {
    core::fill_test_pattern(g, 1.0, spec.threads);
  } else if (spec.initial == "uniform") {
    core::fill_cells(g, spec.threads, 1.0, [](int, int, int) { return 1.0; });
  } else if (spec.initial == "hot-face") {
    core::fill_cells(g, spec.threads, 0.0,
                     [](int i, int, int) { return i == 0 ? 1.0 : 0.0; });
  } else {
    throw std::invalid_argument("scenario: unknown initial \"" +
                                spec.initial + "\"");
  }
  return g;
}

/// kappa field of geometry "fibers": insulating background with an
/// array of conductive square fibers along x (the composite_material
/// example's field, parameterized by kfiber).
[[nodiscard]] inline core::Grid3 make_fiber_kappa(const CaseSpec& spec) {
  core::Grid3 kappa(spec.nx, spec.ny, spec.nz);
  const int pitch = std::max(4, spec.ny / 4);
  const int width = std::max(1, pitch / 3);
  core::fill_cells(kappa, spec.threads, 1.0, [&](int, int j, int k) {
    return j % pitch < width && k % pitch < width ? spec.kfiber : 1.0;
  });
  return kappa;
}

/// Code of cell (i, j, k) in the closed cavity of `spec`: 2 on the top
/// z face (the moving lid), 1 on the other faces, 0 inside.
[[nodiscard]] inline double cavity_code(const CaseSpec& spec, int i, int j,
                                        int k) {
  if (k == spec.nz - 1) return 2.0;
  return i == 0 || j == 0 || k == 0 || i == spec.nx - 1 || j == spec.ny - 1
             ? 1.0
             : 0.0;
}

/// Geometry-code grid (0 fluid / 1 wall / 2 lid) of a closed cavity
/// whose top z face is the moving lid — lbm::Geometry::cavity spelled
/// as codes so it rides the aux-grid channel.
[[nodiscard]] inline core::Grid3 make_cavity_codes(const CaseSpec& spec) {
  core::Grid3 codes(spec.nx, spec.ny, spec.nz);
  core::fill_cells(codes, spec.threads, 0.0, [&](int i, int j, int k) {
    return cavity_code(spec, i, j, k);
  });
  return codes;
}

/// "obstacle": the cavity with a centered solid block of a quarter of
/// each extent — the smallest geometry the built-in cavity cannot
/// express, exercising the geometry-code path end to end.
[[nodiscard]] inline core::Grid3 make_obstacle_codes(const CaseSpec& spec) {
  const int bx = std::max(1, spec.nx / 4), by = std::max(1, spec.ny / 4),
            bz = std::max(1, spec.nz / 4);
  const int i0 = (spec.nx - bx) / 2, j0 = (spec.ny - by) / 2,
            k0 = (spec.nz - bz) / 2;
  core::Grid3 codes(spec.nx, spec.ny, spec.nz);
  core::fill_cells(codes, spec.threads, 0.0, [&](int i, int j, int k) {
    const bool block = i >= i0 && i < i0 + bx && j >= j0 && j < j0 + by &&
                       k >= k0 && k < k0 + bz;
    return block ? 1.0 : cavity_code(spec, i, j, k);
  });
  return codes;
}

/// True when the resolved geometry is lbm geometry codes (the engine
/// must set SolverConfig::lbm_geometry_from_aux for these).
[[nodiscard]] inline bool geometry_is_codes(const CaseSpec& spec) {
  const std::string g = resolve_geometry(spec);
  return g == "cavity" || g == "obstacle";
}

/// The auxiliary grid of the case, or nullopt when the operator runs
/// without one.  Throws when the combination makes no sense (a kappa
/// material under lbm, geometry codes under a diffusion operator, or
/// varcoef with no material at all).
[[nodiscard]] inline std::optional<core::Grid3> make_aux(
    const CaseSpec& spec) {
  const std::string g = resolve_geometry(spec);
  const bool is_lbm = spec.op.rfind("lbm", 0) == 0;
  if (g == "none") {
    if (spec.op == "varcoef")
      throw std::invalid_argument(
          "scenario: operator varcoef needs geometry slab or fibers");
    return std::nullopt;
  }
  if (g == "slab" || g == "fibers") {
    if (is_lbm)
      throw std::invalid_argument("scenario: geometry \"" + g +
                                  "\" is a material field; the lbm "
                                  "operators take cavity|obstacle|none");
    return g == "slab"
               ? core::make_slab_kappa(spec.nx, spec.ny, spec.nz,
                                       spec.threads)
               : make_fiber_kappa(spec);
  }
  // cavity | obstacle: lbm geometry codes.
  if (!is_lbm)
    throw std::invalid_argument("scenario: geometry \"" + g +
                                "\" is lbm-only; diffusion operators take "
                                "slab|fibers|none");
  return g == "cavity" ? make_cavity_codes(spec) : make_obstacle_codes(spec);
}

}  // namespace tb::scenario
