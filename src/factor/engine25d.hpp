/// \file engine25d.hpp
/// The 2.5D substrate under both factorization families. COnfLUX/CALU
/// (lu/block25d.cpp) and COnfCHOX (cholesky/confchox25d.cpp) derive from one
/// X-partitioning schedule (arXiv 2108.09337) and run the same step
/// structure on a [Px, Py, c] grid, step t reducing onto layer
/// l* = t mod c with panel process column py_c = t mod Py:
///   1. lazy layer reduction of the panel column strip onto l*
///      (reduce_column_strip);
///   2. the panel solve at the row leaders (px, py_c, l*);
///   3. layer-sliced panel broadcasts: the owner scatters one k-slice per
///      layer (scatter_layer_slices), and each slice spreads down a layer
///      line in a binomial tree (bcast_slice);
///   4. a local Schur update with the layer's k-slice, on the tiles of a
///      TileStore.
/// What the engines keep is their panel policy: tournament pivoting with
/// masked rows (LU) or unpivoted potrf with a transposed column broadcast
/// (Cholesky).
///
/// The layer-sliced broadcast route: a panel owner at (x, y, l*) holds one
/// k-slice of its panel per layer. Slice l must reach every rank of a
/// *layer line* on layer l: a process row (x, *, l) or a process column
/// (*, y, l). The route has two hops:
///   1. scatter: the owner sends slice l to the line member at the owner's
///      own position along the line (for the owner's own line on l*, that
///      is the owner itself: a free self-send);
///   2. tree: that member roots a zero-copy binomial tree over the line
///      (simnet::bcast_shared; in dry runs the buffer is null and travels
///      as a ghost, exactly as in simnet::bcast_ghost).
/// Messages and bytes equal a flat fan-out from the owner; only the senders
/// change. The owner injects each slice once, and a d-member line is
/// covered in ceil(log2 d) tree rounds.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "factor/factorization.hpp"
#include "grid/block_cyclic.hpp"
#include "grid/grid3d.hpp"
#include "grid/grid_opt.hpp"
#include "linalg/matrix.hpp"
#include "simnet/collectives.hpp"

namespace conflux::factor {

/// Resolved run parameters shared by every rank of a 2.5D run.
struct Plan25D {
  int n = 0;
  int v = 0;      ///< block size
  int steps = 0;  ///< n / v
  grid::Grid3D g{1, 1, 1};
  int active = 0;  ///< ranks on the grid; the rest of P stay idle
  bool numeric = true;
  telemetry::TelemetryBoard* tel = nullptr;  ///< ConfScope board (nullable)
};

/// Resolve a 2.5D run from its config. The memory budget is
/// cfg.mem_elements, or the paper's max-replication rule N^2 / P^(2/3).
/// The grid is the `cost` optimum over [Px, Py, c] within that budget,
/// unless cfg.force_layers or !cfg.grid_optimization fixes c (then the
/// front Px x Py is the most square split of P / c). The block size is
/// cfg.block, or grid::choose_block_size's pick for the chosen c.
[[nodiscard]] Plan25D resolve_plan25d(const FactorConfig& cfg,
                                      grid::GridCostFn cost);

/// One rank's tiles of the N x N matrix: tiles (It, Jt) with
/// It % Px == px and Jt % Py == py, packed [(It/Px) * ltc + (Jt/Py)] * v^2,
/// row-major within a tile.
class TileStore {
 public:
  TileStore() = default;

  /// Storage for the tiles of `me`. Layer 0 holds A; the other layers hold
  /// zero partial sums. With `lower_only`, only tiles It >= Jt are loaded
  /// (the strict upper tiles of a symmetric matrix are never read).
  TileStore(const Plan25D& plan, grid::Coord3 me, const linalg::Matrix& a,
            bool lower_only);

  /// Pointer to the owned tile (It, Jt).
  [[nodiscard]] double* tile_at(int tile_row, int tile_col) {
    return data_.data() +
           (static_cast<std::size_t>(tile_row / px_) * ltc_ +
            tile_col / py_) *
               (static_cast<std::size_t>(v_) * v_);
  }

  /// Element reference inside the owned tile covering (row, col).
  [[nodiscard]] double& elem_at(int row, int col) {
    return tile_at(row / v_, col / v_)[static_cast<std::size_t>(row % v_) *
                                           v_ +
                                       col % v_];
  }

 private:
  std::vector<double> data_;
  int px_ = 1, py_ = 1, v_ = 1, ltc_ = 0;
};

/// The two layer lines through one rank: its process row (px, *, l),
/// indexed by py, and its process column (*, py, l), indexed by px.
struct LayerLines {
  simnet::Group row;
  simnet::Group col;
};

[[nodiscard]] LayerLines layer_lines(const grid::Grid3D& g, grid::Coord3 me);

/// Per-rank state common to both engines.
struct Rank25D {
  grid::Coord3 me;
  LayerLines lines;  ///< this rank's process row and column
  TileStore tiles;   ///< numeric runs only

  /// Rank `rank` of `plan`; numeric runs load its tiles from `a`.
  Rank25D(const Plan25D& plan, int rank, const linalg::Matrix* a,
          bool lower_only);
};

/// Step 1 of both engines: sum the per-layer partials of panel column t onto
/// the reducing layer l*. `rows` are the global rows of the column strip
/// this rank's (px, py_c) stack holds, ascending; only ranks in process
/// column py_c take part, and the other layers' copies are zeroed. Runs in
/// the layer_reduction span.
void reduce_column_strip(const Plan25D& plan, Rank25D& st,
                         const simnet::Comm& comm, int t,
                         const std::vector<int>& rows);

/// The owner's scatter hop of the layer-sliced broadcast: for every layer l
/// with a non-empty k-slice of the v panel columns, send the slice to rank
/// (x, y, l), the root of that layer line's tree. Numeric runs send
/// `pack(slice)`; dry runs send a ghost. Either way the message carries
/// bytes_per_k * |slice| bytes.
template <class Pack>
void scatter_layer_slices(const Plan25D& plan, const simnet::Comm& comm,
                          int x, int y, simnet::Tag tag,
                          std::size_t bytes_per_k, Pack&& pack) {
  const int c = plan.g.layers();
  for (int l = 0; l < c; ++l) {
    const grid::Range slice = grid::chunk_range(plan.v, c, l);
    if (slice.size() == 0) continue;
    simnet::SharedBuffer buf;
    if (plan.numeric) buf = simnet::make_shared_buffer(pack(slice));
    comm.send_shared(plan.g.rank_of({x, y, l}), tag, std::move(buf),
                     bytes_per_k * static_cast<std::size_t>(slice.size()));
  }
}

/// Columns `k` of every row of `m`, row by row: the slice a row-panel owner
/// scatters.
[[nodiscard]] std::vector<double> pack_columns(const linalg::Matrix& m,
                                               grid::Range k);

/// Line side of the route: every member of `line` calls this once per
/// slice, the owner after all its scatter hops. The member at `root_index`
/// first receives the slice from `owner`, then the tree spreads it. Returns
/// the slice's view; in a dry run the view carries only the byte count.
[[nodiscard]] simnet::BufferView bcast_slice(const simnet::Comm& comm,
                                             const simnet::Group& line,
                                             int root_index, int owner,
                                             simnet::Tag tag);

}  // namespace conflux::factor
