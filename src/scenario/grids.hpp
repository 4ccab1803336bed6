// Grid builders for scenario cases: initial conditions and the
// material/geometry auxiliary field a CaseSpec names symbolically.
//
// Deliberately deterministic functions of the spec alone (no RNG, no
// host state), so a scenario file pins its inputs bit-for-bit — the
// property the engine's bit-identity guarantee rests on.
#pragma once

#include <algorithm>
#include <optional>
#include <sstream>
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

/// Writes the level-0 data of CaseSpec::initial into `g`, which has the
/// spec's shape:
///   pattern  — the deterministic test pattern every solver test uses
///   uniform  — all ones (LBM: uniform density rho = 1)
///   hot-face — zero bulk with a unit x = 0 face (the heat examples'
///              Dirichlet drive)
/// Every builder here writes z-slices on spec.threads threads; each cell
/// is a function of (i, j, k) alone, so the bits do not depend on them.
/// Reads spec.initial and nothing else but the shape (initial_key).
inline void fill_initial(const CaseSpec& spec, core::Grid3& g) {
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
}

/// fill_initial on a new grid of the spec's shape.
[[nodiscard]] inline core::Grid3 make_initial(const CaseSpec& spec) {
  core::Grid3 g(spec.nx, spec.ny, spec.nz);
  fill_initial(spec, g);
  return g;
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

/// True when the resolved geometry is lbm geometry codes (the engine
/// must set SolverConfig::lbm_geometry_from_aux for these).
[[nodiscard]] inline bool geometry_is_codes(const CaseSpec& spec) {
  const std::string g = resolve_geometry(spec);
  return g == "cavity" || g == "obstacle";
}

/// The resolved geometry of the case, "none" when the operator runs
/// without an aux grid.  Throws when the combination makes no sense (a
/// kappa material under lbm, geometry codes under a diffusion operator,
/// or varcoef with no material at all).
[[nodiscard]] inline std::string checked_geometry(const CaseSpec& spec) {
  const std::string g = resolve_geometry(spec);
  const bool is_lbm = spec.op.rfind("lbm", 0) == 0;
  if (g == "none") {
    if (spec.op == "varcoef")
      throw std::invalid_argument(
          "scenario: operator varcoef needs geometry slab or fibers");
  } else if (g == "slab" || g == "fibers") {
    if (is_lbm)
      throw std::invalid_argument("scenario: geometry \"" + g +
                                  "\" is a material field; the lbm "
                                  "operators take cavity|obstacle|none");
  } else if (!is_lbm) {  // cavity | obstacle: lbm geometry codes
    throw std::invalid_argument("scenario: geometry \"" + g +
                                "\" is lbm-only; diffusion operators take "
                                "slab|fibers|none");
  }
  return g;
}

/// Writes the aux field of `geometry` (a checked_geometry result other
/// than "none") into `g`, which has the spec's shape:
///   slab     — core::fill_slab_kappa
///   fibers   — insulating background with an array of conductive
///              square fibers along x (the composite_material example's
///              field, parameterized by kfiber)
///   cavity   — geometry codes (0 fluid / 1 wall / 2 lid) of a closed
///              cavity whose top z face is the moving lid:
///              lbm::Geometry::cavity spelled as codes so it rides the
///              aux-grid channel
///   obstacle — the cavity with a centered solid block of a quarter of
///              each extent: the smallest geometry the built-in cavity
///              cannot express, exercising the geometry-code path end to
///              end
/// Reads nothing of the spec but the shape, `geometry` and, for fibers,
/// kfiber (aux_key).
inline void fill_aux(const CaseSpec& spec, const std::string& geometry,
                     core::Grid3& g) {
  if (geometry == "slab") {
    core::fill_slab_kappa(g, spec.threads);
  } else if (geometry == "fibers") {
    const int pitch = std::max(4, spec.ny / 4);
    const int width = std::max(1, pitch / 3);
    const double kfiber = spec.kfiber;
    core::fill_cells(g, spec.threads, 1.0, [&](int, int j, int k) {
      return j % pitch < width && k % pitch < width ? kfiber : 1.0;
    });
  } else if (geometry == "cavity") {
    core::fill_cells(g, spec.threads, 0.0, [&](int i, int j, int k) {
      return cavity_code(spec, i, j, k);
    });
  } else {  // obstacle
    const int bx = std::max(1, spec.nx / 4), by = std::max(1, spec.ny / 4),
              bz = std::max(1, spec.nz / 4);
    const int i0 = (spec.nx - bx) / 2, j0 = (spec.ny - by) / 2,
              k0 = (spec.nz - bz) / 2;
    core::fill_cells(g, spec.threads, 0.0, [&](int i, int j, int k) {
      const bool block = i >= i0 && i < i0 + bx && j >= j0 && j < j0 + by &&
                         k >= k0 && k < k0 + bz;
      return block ? 1.0 : cavity_code(spec, i, j, k);
    });
  }
}

/// The auxiliary grid of the case, or nullopt when the operator runs
/// without one.  Throws as checked_geometry does.
[[nodiscard]] inline std::optional<core::Grid3> make_aux(
    const CaseSpec& spec) {
  const std::string g = checked_geometry(spec);
  if (g == "none") return std::nullopt;
  core::Grid3 aux(spec.nx, spec.ny, spec.nz);
  fill_aux(spec, g, aux);
  return aux;
}

/// What fill_initial reads of a spec beyond its shape: two specs of one
/// shape with equal keys get bit-identical initial grids.
[[nodiscard]] inline std::string initial_key(const CaseSpec& spec) {
  return spec.initial;
}

/// What fill_aux reads of a spec beyond its shape, for the checked
/// `geometry`: two specs of one shape with equal keys get bit-identical
/// aux grids.  The geometry name also says whether the field is a kappa
/// material or lbm codes; kfiber prints with enough digits to
/// round-trip, so fields that differ in any bit never share a key.
[[nodiscard]] inline std::string aux_key(const CaseSpec& spec,
                                         const std::string& geometry) {
  if (geometry != "fibers") return geometry;
  std::ostringstream os;
  os.precision(17);
  os << geometry << '|' << spec.kfiber;
  return os.str();
}

}  // namespace tb::scenario
