#pragma once
// Rent-rule-structured synthetic circuits — the stand-in for the ISPD
// 2005/2006 placement benchmarks and the industrial 65nm design, neither of
// which can ship with this repository (see README "Substitutions").
//
// Construction: cells live on an implicit sqrt(n) x sqrt(n) grid; each
// background net picks a center cell and draws its remaining pins within a
// Pareto-distributed radius.  Power-law net locality is the classical
// mechanism that yields Rent-rule scaling T ~ A * k^p with p controlled by
// the radius exponent.  Planted "tangled structures" (dissolved ROMs, MUX
// farms) occupy rectangular patches of the grid: their cells use
// complex-gate pin profiles, carry dense internal nets, and reach the rest
// of the design only through a few dozen port nets.  Fixed I/O pads ring
// the die so quadratic placement is anchored.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace gtl {

/// One planted tangled structure.
struct StructureSpec {
  std::uint32_t size = 1000;        ///< number of cells
  double internal_nets_per_cell = 1.6;
  double internal_avg_net_size = 3.2;
  std::uint32_t ports = 30;         ///< external 2-pin port nets
  /// Optional placement hint for the patch center in [0,1]^2 die
  /// coordinates; negative = let the generator choose.
  double center_x = -1.0;
  double center_y = -1.0;
};

struct SyntheticCircuitConfig {
  std::string name = "synthetic";
  std::uint32_t num_cells = 100'000;
  std::uint32_t num_pads = 64;         ///< fixed terminals on the periphery
  double background_nets_per_cell = 1.25;
  double multi_pin_fraction = 0.3;
  std::uint32_t max_net_size = 12;
  /// Pareto shape for net radius; larger => more local => smaller Rent p.
  double locality_alpha = 1.7;
  std::vector<StructureSpec> structures;
  /// Give cells names ("o123")? Costs memory on million-cell designs.
  bool with_names = false;
};

struct SyntheticCircuit {
  Netlist netlist;
  /// Planted structure member lists (sorted by id), parallel to
  /// config.structures.
  std::vector<std::vector<CellId>> planted;
  /// The generator's implicit grid coordinates (cell centers), useful as
  /// ground truth locality for tests; the placer does NOT see these.
  std::vector<double> hint_x, hint_y;
  double die_width = 0.0;
  double die_height = 0.0;
};

/// Generate a synthetic circuit. Deterministic given `rng`.
/// Throws std::invalid_argument if structures do not fit.
[[nodiscard]] SyntheticCircuit generate_synthetic_circuit(
    const SyntheticCircuitConfig& config, Rng& rng);

}  // namespace gtl
