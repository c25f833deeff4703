#include "factor/sliced_bcast.hpp"

#include <utility>
#include <vector>

namespace conflux::factor {

LayerLines layer_lines(const grid::Grid3D& g, grid::Coord3 me) {
  std::vector<int> row(static_cast<std::size_t>(g.py_extent()));
  for (int py = 0; py < g.py_extent(); ++py)
    row[static_cast<std::size_t>(py)] = g.rank_of({me.px, py, me.l});
  std::vector<int> col(static_cast<std::size_t>(g.px_extent()));
  for (int px = 0; px < g.px_extent(); ++px)
    col[static_cast<std::size_t>(px)] = g.rank_of({px, me.py, me.l});
  return {simnet::Group(std::move(row)), simnet::Group(std::move(col))};
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
