#include "src/hashdir/range_walk.h"

#include <unordered_set>

#include "src/common/bit_util.h"

namespace bmeh {
namespace hashdir {

BoxOdometer::BoxOdometer(int dims, const IndexTuple& lo, const IndexTuple& hi)
    : dims_(dims), lo_(lo), hi_(hi), tuple_(lo) {
  for (int j = 0; j < dims_; ++j) {
    BMEH_DCHECK(lo_[j] <= hi_[j]);
  }
}

void BoxOdometer::Next() {
  BMEH_DCHECK(!done_);
  for (int j = dims_ - 1; j >= 0; --j) {
    if (++tuple_[j] <= hi_[j]) return;
    tuple_[j] = lo_[j];
  }
  done_ = true;
}

namespace {

/// Bounds of the query restricted to one subtree, as absolute full-width
/// per-dimension intervals.
struct Bounds {
  std::array<uint32_t, kMaxDims> lo{};
  std::array<uint32_t, kMaxDims> hi{};
};

struct Walker {
  const KeySchema* schema;
  const RangePredicate* pred;
  const RangeWalkCallbacks* cbs;
  std::vector<Record>* out;
  RangeWalkStats* stats;

  Status Visit(Ref ref, const Bounds& bounds,
               const std::array<uint16_t, kMaxDims>& consumed, int level) {
    if (ref.is_nil()) return Status::OK();
    if (ref.is_page()) {
      ++stats->pages_visited;
      cbs->visit_page(ref.id, *pred, out);
      return Status::OK();
    }
    const DirNode* node = cbs->get_node(ref.id, level);
    if (node == nullptr) {
      return Status::Corruption("range walk: dangling node ref " +
                                std::to_string(ref.id));
    }
    ++stats->nodes_visited;
    stats->max_level = std::max<uint64_t>(stats->max_level, level);
    const int d = schema->dims();

    // Per-dimension index interval [L_j, U_j] within this node.
    IndexTuple L{}, U{};
    for (int j = 0; j < d; ++j) {
      const int w = schema->width(j);
      const int H = node->depth(j);
      if (consumed[j] + H > w) {
        return Status::Corruption("range walk: path deeper than key width");
      }
      L[j] = static_cast<uint32_t>(
          bit_util::ExtractBits(bounds.lo[j], w, consumed[j], H));
      U[j] = static_cast<uint32_t>(
          bit_util::ExtractBits(bounds.hi[j], w, consumed[j], H));
      BMEH_DCHECK(L[j] <= U[j]);
    }

    // Visit each group intersecting the box once ("P has not been
    // accessed"): deduplicate by the group's minimal member address.
    std::unordered_set<uint64_t> seen_groups;
    for (BoxOdometer od(d, L, U); !od.done(); od.Next()) {
      const IndexTuple& t = od.tuple();
      ++stats->cells_scanned;
      if (cbs->visit_cell) cbs->visit_cell(ref.id, node->AddressOf(t));
      const Entry& e = node->at(t);

      IndexTuple rep{};
      for (int j = 0; j < d; ++j) {
        const int f = node->depth(j) - e.h[j];
        rep[j] = (t[j] >> f) << f;
      }
      if (!seen_groups.insert(node->AddressOf(rep)).second) continue;

      if (!e.ref.is_node()) ++stats->leaf_groups;
      if (e.ref.is_nil()) continue;

      // Narrow the bounds to this group's region before descending.
      Bounds child = bounds;
      std::array<uint16_t, kMaxDims> child_consumed = consumed;
      for (int j = 0; j < d; ++j) {
        const int w = schema->width(j);
        const int H = node->depth(j);
        const uint64_t prefix = bit_util::IndexPrefix(t[j], H, e.h[j]);
        const uint32_t region_lo = static_cast<uint32_t>(bit_util::ComposeBits(
            bounds.lo[j], w, consumed[j], e.h[j], prefix, false));
        const uint32_t region_hi = static_cast<uint32_t>(bit_util::ComposeBits(
            bounds.hi[j], w, consumed[j], e.h[j], prefix, true));
        child.lo[j] = std::max(bounds.lo[j], region_lo);
        child.hi[j] = std::min(bounds.hi[j], region_hi);
        BMEH_DCHECK(child.lo[j] <= child.hi[j]);
        child_consumed[j] = static_cast<uint16_t>(consumed[j] + e.h[j]);
      }
      BMEH_RETURN_NOT_OK(Visit(e.ref, child, child_consumed, level + 1));
    }
    return Status::OK();
  }
};

}  // namespace

Status RangeWalk(const KeySchema& schema, const RangePredicate& pred,
                 Ref root, const RangeWalkCallbacks& callbacks,
                 std::vector<Record>* out, RangeWalkStats* stats) {
  BMEH_DCHECK(out != nullptr && stats != nullptr);
  if (pred.Empty()) return Status::OK();
  Bounds bounds;
  for (int j = 0; j < schema.dims(); ++j) {
    bounds.lo[j] = pred.lo(j);
    bounds.hi[j] = pred.hi(j);
  }
  Walker walker{&schema, &pred, &callbacks, out, stats};
  std::array<uint16_t, kMaxDims> consumed{};
  return walker.Visit(root, bounds, consumed, 1);
}

}  // namespace hashdir
}  // namespace bmeh
