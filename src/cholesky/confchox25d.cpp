#include "cholesky/confchox25d.hpp"

#include <algorithm>
#include <atomic>

#include "factor/engine25d.hpp"
#include "factor/step_records.hpp"
#include "linalg/blas.hpp"
#include "linalg/potrf.hpp"
#include "simnet/spmd.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace conflux::cholesky {

namespace {

using factor::Plan25D;
using factor::Rank25D;
using factor::StepRecord;
using grid::chunk_range;
using linalg::Matrix;
using simnet::Comm;
using simnet::make_tag;
using simnet::Tag;

/// Tiles It in [first, n/v) owned along one grid dimension (extent, pos),
/// ascending.
std::vector<int> owned_tiles(const Plan25D& plan, int first, int extent,
                             int pos) {
  std::vector<int> out;
  const int tiles_total = plan.n / plan.v;
  for (int it = first; it < tiles_total; ++it)
    if (it % extent == pos) out.push_back(it);
  return out;
}

/// Rows of the owned tiles It in [first, n/v) of process row `px`,
/// ascending. Step 1 reduces the strip of rows >= t*v: Cholesky's row
/// panel is the transposed column panel, so COnfLUX's second reduce (its
/// step 5) has no counterpart here.
std::vector<int> owned_rows(const Plan25D& plan, int first, int px) {
  std::vector<int> rows;
  for (int it : owned_tiles(plan, first, plan.g.px_extent(), px))
    for (int r = it * plan.v; r < (it + 1) * plan.v; ++r) rows.push_back(r);
  return rows;
}

/// ---- Step 2: factor the diagonal block, broadcast L00 --------------------
/// The owner of tile (t, t) on the reducing layer runs the sequential
/// potrf; L00 then travels to every active rank (v^2 per step — the same
/// lower-order term as COnfLUX's A00 broadcast, minus the pivot indices).
Matrix factor_and_bcast_a00(const Plan25D& plan, Rank25D& st, const Comm& comm,
                            int t, int l_star, int py_c,
                            const simnet::Group& world,
                            std::atomic<bool>* not_spd) {
  const int v = plan.v;
  const int root = plan.g.rank_of({t % plan.g.px_extent(), py_c, l_star});
  Matrix a00(v, v);
  if (plan.numeric) {
    std::vector<double> flat(static_cast<std::size_t>(v) * v, 0.0);
    if (comm.rank() == root) {
      linalg::MatrixView tile(st.tiles.tile_at(t, t), v, v, v);
      if (linalg::potrf_unblocked(tile) != linalg::FactorStatus::Ok)
        not_spd->store(true, std::memory_order_relaxed);
      for (int i = 0; i < v; ++i)
        for (int j = 0; j <= i; ++j)
          flat[static_cast<std::size_t>(i) * v + j] = tile(i, j);
    }
    simnet::bcast(comm, world, root, flat,
                  make_tag(3, static_cast<std::uint32_t>(t), 0));
    std::copy(flat.begin(), flat.end(), a00.data());
  } else {
    (void)simnet::bcast_ghost(
        comm, world, root, static_cast<std::size_t>(v) * v * sizeof(double),
        make_tag(3, static_cast<std::uint32_t>(t), 0));
  }
  return a00;
}

/// ---- Step 3: panel solve at the row leaders ------------------------------
/// The reduced strip below the diagonal already lives, grouped by tile-row
/// owner px, on the column owners (px, py_c, l_star) — the same px-aligned
/// 1D layout COnfLUX uses, so L10 := A10 * L00^{-T} runs in place with no
/// redistribution.
struct PanelL10 {
  std::vector<int> tiles;  ///< owned trailing tiles (> t), ascending
  Matrix full;             ///< (tiles * v) x v solved rows (numeric leaders)
  bool leader = false;
};

PanelL10 solve_panel(const Plan25D& plan, Rank25D& st, int t, int l_star,
                     int py_c, const Matrix& a00,
                     std::vector<StepRecord>* records) {
  PanelL10 panel;
  if (st.me.py != py_c || st.me.l != l_star) return panel;
  panel.leader = true;
  panel.tiles = owned_tiles(plan, t + 1, plan.g.px_extent(), st.me.px);
  if (panel.tiles.empty() || !plan.numeric) return panel;

  const int v = plan.v;
  const int col0 = t * v;
  panel.full = Matrix(static_cast<int>(panel.tiles.size()) * v, v);
  int i = 0;
  for (int it : panel.tiles)
    for (int r = it * v; r < (it + 1) * v; ++r, ++i) {
      const double* base = &st.tiles.elem_at(r, col0);
      auto dst = panel.full.row(i);
      std::copy(base, base + v, dst.begin());
    }
  // L10 := A10 * L00^{-T}.
  linalg::trsm_right_lower_transposed(a00.view(), panel.full.view());
  if (records != nullptr) {
    StepRecord& rec = (*records)[static_cast<std::size_t>(t)];
    i = 0;
    for (int it : panel.tiles)
      for (int r = it * v; r < (it + 1) * v; ++r, ++i) {
        auto srow = panel.full.row(i);
        auto drow = rec.a10.row(r);
        std::copy(srow.begin(), srow.end(), drow.begin());
      }
  }
  return panel;
}

/// ---- Step 4: layer-sliced row broadcast ----------------------------------
/// Row leaders (px, py_c, l_star) -> every (px, *, l), sending each layer
/// only its v/c k-slice of the solved panel rows (COnfLUX step 8), over the
/// scatter-plus-tree route of factor/engine25d.hpp.
struct RowSlice {
  std::vector<int> tiles;  ///< my trailing row tiles
  Matrix values;           ///< (tiles * v) x slice
  grid::Range slice;       ///< k-range within the v panel columns
};

RowSlice multicast_rows(const Plan25D& plan, Rank25D& st, const Comm& comm,
                        int t, int l_star, int py_c, const PanelL10& panel) {
  RowSlice out;
  const int v = plan.v;
  const int c = plan.g.layers();
  out.slice = chunk_range(v, c, st.me.l);

  const Tag tag = make_tag(8, static_cast<std::uint32_t>(t), 0);
  if (panel.leader && !panel.tiles.empty()) {
    // One packed slice per layer to the root of that layer's row tree: this
    // leader's own process column on the layer.
    factor::scatter_layer_slices(
        plan, comm, st.me.px, py_c, tag,
        panel.tiles.size() * static_cast<std::size_t>(v) * sizeof(double),
        [&](grid::Range k) { return factor::pack_columns(panel.full, k); });
  }

  const auto mine = owned_tiles(plan, t + 1, plan.g.px_extent(), st.me.px);
  if (!mine.empty() && out.slice.size() > 0) {
    out.tiles = mine;
    const simnet::BufferView buf = factor::bcast_slice(
        comm, st.lines.row, py_c, plan.g.rank_of({st.me.px, py_c, l_star}),
        tag);
    if (plan.numeric) {
      out.values = Matrix(static_cast<int>(mine.size()) * v,
                          out.slice.size());
      std::copy(buf.data(), buf.data() + buf.size(), out.values.data());
    }
  }
  return out;
}

/// ---- Step 5: layer-sliced transposed broadcast ---------------------------
/// The symmetric update needs L10^T where COnfLUX needs the separately
/// reduced-and-solved A01 row panel. The row leaders already hold every L10
/// row, so they also serve the column direction: the rows of tile It go,
/// k-sliced per layer, to the ranks whose process column owns tile column
/// It — i.e. leader (It % Px, py_c, l_star) -> every (*, It % Py, l). Each
/// process column thus carries px_count trees per step, one per leader;
/// the tree tags fold in the root, so they never share a channel tag.
struct ColSlice {
  std::vector<int> tiles;  ///< my trailing column tiles
  Matrix values;  ///< slice x (tiles * v): values(k, j) = L10(col_j, k)
  grid::Range slice;
};

ColSlice multicast_cols(const Plan25D& plan, Rank25D& st, const Comm& comm,
                        int t, int l_star, int py_c, const PanelL10& panel) {
  ColSlice out;
  const int v = plan.v;
  const int c = plan.g.layers();
  const int px_count = plan.g.px_extent();
  const int py_count = plan.g.py_extent();
  out.slice = chunk_range(v, c, st.me.l);

  const Tag tag = make_tag(10, static_cast<std::uint32_t>(t), 0);
  if (panel.leader && !panel.tiles.empty()) {
    for (int py_d = 0; py_d < py_count; ++py_d) {
      std::vector<int> group;  // positions of my tiles bound for column py_d
      for (std::size_t i = 0; i < panel.tiles.size(); ++i)
        if (panel.tiles[i] % py_count == py_d)
          group.push_back(static_cast<int>(i));
      if (group.empty()) continue;
      // One packed (py_d, layer) strip to the root of that column's tree
      // on the layer: the member in this leader's process row.
      factor::scatter_layer_slices(
          plan, comm, st.me.px, py_d, tag,
          group.size() * static_cast<std::size_t>(v) * sizeof(double),
          [&](grid::Range k) {
            std::vector<double> packed;
            packed.reserve(group.size() * static_cast<std::size_t>(v) *
                           static_cast<std::size_t>(k.size()));
            for (int i : group)
              for (int q = 0; q < v; ++q) {
                const double* base = &panel.full(i * v + q, k.begin);
                packed.insert(packed.end(), base, base + k.size());
              }
            return packed;
          });
    }
  }

  const auto mine = owned_tiles(plan, t + 1, py_count, st.me.py);
  if (!mine.empty() && out.slice.size() > 0) {
    out.tiles = mine;
    if (plan.numeric)
      out.values =
          Matrix(out.slice.size(), static_cast<int>(mine.size()) * v);
    for (int px1 = 0; px1 < px_count; ++px1) {
      std::vector<int> sub;  // positions of my column tiles owned by px1
      for (std::size_t j = 0; j < mine.size(); ++j)
        if (mine[j] % px_count == px1) sub.push_back(static_cast<int>(j));
      if (sub.empty()) continue;
      const simnet::BufferView buf = factor::bcast_slice(
          comm, st.lines.col, px1, plan.g.rank_of({px1, py_c, l_star}), tag);
      if (plan.numeric) {
        const double* in = buf.data();
        for (int j : sub)
          for (int q = 0; q < v; ++q)
            for (int k = out.slice.begin; k < out.slice.end; ++k)
              out.values(k - out.slice.begin, j * v + q) = *in++;
      }
    }
  }
  return out;
}

/// ---- Step 6: local symmetric Schur update with the layer's k-slice -------
/// A11 -= L10 * L10^T, restricted to the lower-triangular tiles It >= Jt
/// this rank owns (the strict upper tiles are dead storage).
void schur_update_local(const Plan25D& plan, Rank25D& st, const RowSlice& rows,
                        const ColSlice& cols) {
  if (!plan.numeric) return;
  if (rows.tiles.empty() || cols.tiles.empty() || rows.slice.size() == 0)
    return;
  CONFLUX_ASSERT(rows.slice.begin == cols.slice.begin &&
                 rows.slice.end == cols.slice.end);
  const int v = plan.v;

  // One GEMM per column tile, restricted to the row tiles at or below it
  // (both tile lists are ascending), so the strict-upper half of the
  // symmetric update is never computed — the same block-column trick as
  // potrf_blocked.
  const int slice = rows.slice.size();
  for (std::size_t tj = 0; tj < cols.tiles.size(); ++tj) {
    std::size_t ti0 = 0;
    while (ti0 < rows.tiles.size() && rows.tiles[ti0] < cols.tiles[tj])
      ++ti0;
    if (ti0 == rows.tiles.size()) continue;
    const int row0 = static_cast<int>(ti0) * v;
    const int nrows = rows.values.rows() - row0;
    Matrix prod(nrows, v);
    linalg::gemm(1.0, rows.values.view().block(row0, 0, nrows, slice),
                 cols.values.view().block(0, static_cast<int>(tj) * v, slice,
                                          v),
                 0.0, prod.view());
    for (int i = 0; i < nrows; ++i) {
      const int gi = row0 + i;
      const int r = rows.tiles[static_cast<std::size_t>(gi) / v] * v + gi % v;
      auto pr = prod.row(i);
      double* dst = &st.tiles.elem_at(r, cols.tiles[tj] * v);
      for (int k = 0; k < v; ++k) dst[k] -= pr[k];
    }
  }
}

}  // namespace

CholResult Confchox25D::run(const linalg::Matrix* a, const CholConfig& cfg) {
  CONFLUX_EXPECTS(cfg.n >= 1 && cfg.p >= 1);
  CONFLUX_EXPECTS(cfg.mode == Mode::DryRun || a != nullptr);

  const Plan25D plan =
      factor::resolve_plan25d(cfg, grid::confchox_cost_per_rank);

  std::vector<StepRecord> records;
  const bool want_records = plan.numeric && (cfg.verify || cfg.keep_factors);
  if (want_records)
    records = factor::make_step_records(plan.n, plan.v, /*with_a01=*/false);
  std::atomic<bool> not_spd{false};

  simnet::Network net(plan.active, cfg.fabric);
  factor::attach_instruments(net, cfg);
  const simnet::Group world = simnet::Group::iota(plan.active);

  Stopwatch timer;
  simnet::run_spmd(net, [&](Comm& comm) {
    // Only tiles It >= Jt carry data: the trailing matrix is symmetric, and
    // the strict upper tiles are never read or written.
    Rank25D st(plan, comm.rank(), a, /*lower_only=*/true);
    const int me = comm.rank();
    for (int t = 0; t < plan.steps; ++t) {
      const int l_star = t % plan.g.layers();
      const int py_c = t % plan.g.py_extent();
      factor::reduce_column_strip(                                 // step 1
          plan, st, comm, t,
          st.me.py == py_c ? owned_rows(plan, t, st.me.px)
                           : std::vector<int>());
      Matrix a00;
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kPanelFactor, t);
        a00 = factor_and_bcast_a00(plan, st, comm, t,              // step 2
                                   l_star, py_c, world, &not_spd);
      }
      if (want_records && me == 0) {
        StepRecord& rec = records[static_cast<std::size_t>(t)];
        for (int q = 0; q < plan.v; ++q)
          rec.pivots[static_cast<std::size_t>(q)] = t * plan.v + q;
        rec.a00 = a00;
      }
      PanelL10 panel;
      {
        const telemetry::ScopedSpan span(plan.tel, me, telemetry::kTrsm, t);
        panel = solve_panel(plan, st, t, l_star, py_c,             // step 3
                            a00, want_records ? &records : nullptr);
      }
      {
        const telemetry::ScopedSpan span(plan.tel, me,
                                         telemetry::kSchurUpdate, t);
        const RowSlice rows = multicast_rows(plan, st, comm, t,    // step 4
                                             l_star, py_c, panel);
        const ColSlice cols = multicast_cols(plan, st, comm, t,    // step 5
                                             l_star, py_c, panel);
        schur_update_local(plan, st, rows, cols);                  // step 6
      }
    }
  });

  CholResult result;
  result.seconds = timer.seconds();
  factor::fill_comm_stats(result, net, plan.active, cfg.p);
  result.grid = plan.g.to_string();
  result.block = plan.v;
  result.spd = !not_spd.load(std::memory_order_relaxed);
  if (want_records) {
    const Matrix l =
        factor::assemble_cholesky_factor(records, plan.n, plan.v);
    if (cfg.verify) result.residual = linalg::cholesky_residual(*a, l.view());
    if (cfg.keep_factors)
      result.factors = std::make_shared<linalg::Matrix>(std::move(l));
  }
  return result;
}

}  // namespace conflux::cholesky
