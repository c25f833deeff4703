#include "grid/block_cyclic.hpp"

namespace conflux::grid {

Local2D::Local2D(int n, int nb, const Grid2D& grid, int base, int rank)
    : g(grid),
      base_rank(base),
      pr(grid.row_of(rank - base)),
      pc(grid.col_of(rank - base)),
      rowmap(n, nb, grid.rows()),
      colmap(n, nb, grid.cols()),
      my_rows(rowmap.indices_of_owner(pr)),
      my_cols(colmap.indices_of_owner(pc)) {
  CONFLUX_EXPECTS(rank - base >= 0 && rank - base < grid.active());
}

void Local2D::load(const linalg::Matrix& a, bool lower_only) {
  loc = linalg::Matrix(static_cast<int>(my_rows.size()),
                       static_cast<int>(my_cols.size()));
  for (std::size_t i = 0; i < my_rows.size(); ++i)
    for (std::size_t j = 0; j < my_cols.size(); ++j)
      if (!lower_only || my_rows[i] >= my_cols[j])
        loc(static_cast<int>(i), static_cast<int>(j)) =
            a(my_rows[i], my_cols[j]);
}

std::vector<int> Local2D::col_ranks(int col) const {
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(g.rows()));
  for (int r = 0; r < g.rows(); ++r) ranks.push_back(rank_of(r, col));
  return ranks;
}

std::vector<int> Local2D::row_ranks(int row) const {
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(g.cols()));
  for (int c = 0; c < g.cols(); ++c) ranks.push_back(rank_of(row, c));
  return ranks;
}

}  // namespace conflux::grid
