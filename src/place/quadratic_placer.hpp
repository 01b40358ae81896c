#pragma once
// Global placement substrate (see README "Substitutions"): a
// FastPlace-flavored quadratic placer.
//
//   1. Net model: clique expansion with weight 1/(|e|-1) per pin pair for
//      nets up to `max_clique_net` pins (larger nets carry no locality and
//      are skipped, as in classical QP placers).
//   2. Solve the two independent SPD systems (x and y) by Jacobi-PCG,
//      anchored by the fixed I/O pads.
//   3. Spreading: slab-wise 1D area equalization in x then y (a light
//      version of FastPlace cell shifting), followed by a re-solve with
//      pseudo-net anchors of growing weight pulling cells toward their
//      spread positions.  Iterate.
//   4. Optional Tetris legalization onto standard-cell rows.
//
// What matters for the paper's experiments is the placer's *behavioral*
// fidelity: highly connected cells end up close together (which is what
// creates GTL routing hotspots), and enlarged cells demand more area
// (which is what cell inflation exploits to dissolve those hotspots).

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace gtl {

/// Placement region: [0, width] x [0, height], standard-cell rows of
/// `row_height` stacked from y = 0.
struct Die {
  double width = 0.0;
  double height = 0.0;
  double row_height = 1.0;
};

struct PlacerConfig {
  Die die;
  /// Clique net model cutoff.
  std::uint32_t max_clique_net = 16;
  /// Spreading / re-solve rounds.
  std::size_t spreading_iterations = 10;
  /// Density grid used by the spreader.
  std::size_t bins_x = 64;
  std::size_t bins_y = 64;
  /// Blend factor toward the spread positions per round (0..1).
  double spreading_strength = 0.65;
  /// Target cell-area density after spreading: a slab region is widened
  /// only until its local density drops to this value, so clusters are
  /// relieved without being flattened across the die.
  double target_density = 0.8;
  /// Anchor pseudo-net weight (initial, multiplied by `anchor_growth`
  /// after every round).
  double anchor_weight = 0.02;
  double anchor_growth = 1.5;
  /// PCG controls.
  double cg_tolerance = 1e-6;
  std::size_t cg_max_iterations = 300;
  /// Snap to rows and remove overlaps at the end.
  bool legalize = true;
};

struct Placement {
  /// Cell center coordinates, indexed by CellId (fixed cells keep their
  /// input positions).
  std::vector<double> x, y;
  double hpwl = 0.0;  ///< total half-perimeter wirelength
  std::size_t rounds = 0;
};

/// Place `nl` on cfg.die.  `fixed_x`/`fixed_y` give positions for all
/// cells (only the entries of fixed cells are read).  Throws
/// std::invalid_argument when the die is degenerate or no anchors exist.
[[nodiscard]] Placement place_quadratic(const Netlist& nl,
                                        std::span<const double> fixed_x,
                                        std::span<const double> fixed_y,
                                        const PlacerConfig& cfg);

/// Total half-perimeter wirelength of a placement (nets of >= 2 pins).
[[nodiscard]] double total_hpwl(const Netlist& nl, std::span<const double> x,
                                std::span<const double> y);

}  // namespace gtl
