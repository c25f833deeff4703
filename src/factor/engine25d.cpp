#include "factor/engine25d.hpp"

#include <algorithm>
#include <cmath>

#include "support/telemetry.hpp"

namespace conflux::factor {

Plan25D resolve_plan25d(const FactorConfig& cfg, grid::GridCostFn cost) {
  const double mem = cfg.mem_elements > 0
                         ? cfg.mem_elements
                         : static_cast<double>(cfg.n) * cfg.n /
                               std::pow(static_cast<double>(cfg.p), 2.0 / 3.0);
  Plan25D plan;
  plan.n = cfg.n;
  plan.numeric = (cfg.mode == Mode::Numeric);
  plan.tel = cfg.telemetry;
  if (cfg.force_layers > 0 || !cfg.grid_optimization) {
    int c = cfg.force_layers > 0
                ? cfg.force_layers
                : std::max(1, static_cast<int>(std::lround(
                                  cfg.p * mem /
                                  (static_cast<double>(cfg.n) * cfg.n))));
    c = std::min(c, cfg.p);
    const int front = std::max(1, cfg.p / c);
    const int px = std::max(1, static_cast<int>(std::sqrt(
                                   static_cast<double>(front))));
    plan.g = grid::Grid3D(px, std::max(1, front / px), c);
  } else {
    plan.g = grid::optimize_grid(cfg.p, cfg.n, mem, 0, cost).grid;
  }
  plan.active = plan.g.active();
  plan.v = cfg.block > 0
               ? cfg.block
               : grid::choose_block_size(
                     cfg.n, plan.g.layers(),
                     grid::default_block_target(cfg.n, plan.g.layers()));
  CONFLUX_EXPECTS_MSG(cfg.n % plan.v == 0,
                      "block size " << plan.v << " must divide N=" << cfg.n);
  plan.steps = cfg.n / plan.v;
  return plan;
}

TileStore::TileStore(const Plan25D& plan, grid::Coord3 me,
                     const linalg::Matrix& a, bool lower_only)
    : px_(plan.g.px_extent()), py_(plan.g.py_extent()), v_(plan.v) {
  const int tiles_total = plan.n / v_;
  const int ltr = (tiles_total - me.px + px_ - 1) / px_;
  ltc_ = (tiles_total - me.py + py_ - 1) / py_;
  data_.assign(static_cast<std::size_t>(ltr) * ltc_ * v_ * v_, 0.0);
  if (me.l != 0) return;
  for (int it = me.px; it < tiles_total; it += px_)
    for (int jt = me.py; jt < tiles_total && (!lower_only || jt <= it);
         jt += py_) {
      double* t = tile_at(it, jt);
      for (int i = 0; i < v_; ++i)
        for (int j = 0; j < v_; ++j)
          t[static_cast<std::size_t>(i) * v_ + j] = a(it * v_ + i, jt * v_ + j);
    }
}

LayerLines layer_lines(const grid::Grid3D& g, grid::Coord3 me) {
  std::vector<int> row(static_cast<std::size_t>(g.py_extent()));
  for (int py = 0; py < g.py_extent(); ++py)
    row[static_cast<std::size_t>(py)] = g.rank_of({me.px, py, me.l});
  std::vector<int> col(static_cast<std::size_t>(g.px_extent()));
  for (int px = 0; px < g.px_extent(); ++px)
    col[static_cast<std::size_t>(px)] = g.rank_of({px, me.py, me.l});
  return {simnet::Group(std::move(row)), simnet::Group(std::move(col))};
}

Rank25D::Rank25D(const Plan25D& plan, int rank, const linalg::Matrix* a,
                 bool lower_only)
    : me(plan.g.coord_of(rank)), lines(layer_lines(plan.g, me)) {
  if (plan.numeric) tiles = TileStore(plan, me, *a, lower_only);
}

void reduce_column_strip(const Plan25D& plan, Rank25D& st,
                         const simnet::Comm& comm, int t,
                         const std::vector<int>& rows) {
  const telemetry::ScopedSpan span(plan.tel, comm.rank(),
                                   telemetry::kLayerReduction, t);
  const int l_star = t % plan.g.layers();
  const int py_c = t % plan.g.py_extent();
  if (plan.g.layers() == 1 || st.me.py != py_c || rows.empty()) return;
  const int v = plan.v;
  const int col0 = t * v;
  const std::size_t doubles = rows.size() * static_cast<std::size_t>(v);

  if (st.me.l != l_star) {
    const simnet::Tag tag = simnet::make_tag(
        1, static_cast<std::uint32_t>(t), static_cast<std::uint32_t>(st.me.l));
    const int dst = plan.g.rank_of({st.me.px, py_c, l_star});
    if (plan.numeric) {
      std::vector<double> buf;
      buf.reserve(doubles);
      for (int r : rows) {
        double* base = &st.tiles.elem_at(r, col0);
        buf.insert(buf.end(), base, base + v);
        std::fill(base, base + v, 0.0);
      }
      comm.send(dst, tag, std::move(buf));
    } else {
      comm.send_ghost_doubles(dst, tag, doubles);
    }
    return;
  }
  for (int l = 0; l < plan.g.layers(); ++l) {
    if (l == l_star) continue;
    const simnet::Tag tag = simnet::make_tag(
        1, static_cast<std::uint32_t>(t), static_cast<std::uint32_t>(l));
    const int src = plan.g.rank_of({st.me.px, py_c, l});
    if (plan.numeric) {
      // Accumulate straight out of the shared payload; no copy-out.
      const simnet::BufferView buf = comm.recv_view(src, tag);
      const double* in = buf.data();
      for (int r : rows) {
        double* base = &st.tiles.elem_at(r, col0);
        for (int k = 0; k < v; ++k) base[k] += *in++;
      }
    } else {
      (void)comm.recv_ghost(src, tag);
    }
  }
}

std::vector<double> pack_columns(const linalg::Matrix& m, grid::Range k) {
  std::vector<double> packed;
  packed.reserve(static_cast<std::size_t>(m.rows()) *
                 static_cast<std::size_t>(k.size()));
  for (int i = 0; i < m.rows(); ++i) {
    const double* base = &m(i, k.begin);
    packed.insert(packed.end(), base, base + k.size());
  }
  return packed;
}

simnet::BufferView bcast_slice(const simnet::Comm& comm,
                               const simnet::Group& line, int root_index,
                               int owner, simnet::Tag tag) {
  simnet::SharedBuffer buf;
  std::size_t bytes = 0;
  if (comm.rank() == line.at(root_index)) {
    const simnet::BufferView hop = comm.recv_view(owner, tag);
    buf = hop.shared();
    bytes = hop.logical_bytes();
  }
  return simnet::bcast_shared(comm, line, root_index, std::move(buf), bytes,
                              tag);
}

}  // namespace conflux::factor
