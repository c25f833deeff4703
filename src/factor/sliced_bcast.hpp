/// \file sliced_bcast.hpp
/// The layer-sliced panel broadcast of the 2.5D engines (COnfLUX and CALU
/// steps 8 and 10, COnfCHOX steps 4 and 5), shared by both families.
///
/// A panel owner at (x, y, l*) holds one k-slice of its panel per layer.
/// Slice l must reach every rank of a *layer line* on layer l: a process
/// row (x, *, l) or a process column (*, y, l). The route has two hops:
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

#include "grid/grid3d.hpp"
#include "simnet/collectives.hpp"

namespace conflux::factor {

/// The two layer lines through one rank: its process row (px, *, l),
/// indexed by py, and its process column (*, py, l), indexed by px.
struct LayerLines {
  simnet::Group row;
  simnet::Group col;
};

[[nodiscard]] LayerLines layer_lines(const grid::Grid3D& g, grid::Coord3 me);

/// Line side of the route. The owner's scatter hop is a plain
/// `comm.send_shared(root, tag, slice, bytes)` (a null slice is a dry-run
/// ghost); every member of `line` then calls this once per slice, the owner
/// after all its scatter hops. The member at `root_index` first receives
/// the slice from `owner`, then the tree spreads it. Returns the slice's
/// view; in a dry run the view carries only the byte count.
[[nodiscard]] simnet::BufferView bcast_slice(const simnet::Comm& comm,
                                             const simnet::Group& line,
                                             int root_index, int owner,
                                             simnet::Tag tag);

}  // namespace conflux::factor
