#include "dynamic/degree_levels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/random.h"

namespace densest {

// ------------------------------------------------------------ EdgeKeySet --

EdgeKeySet::EdgeKeySet() : slots_(16, kEmpty), mask_(15) {}

size_t EdgeKeySet::IdealSlot(uint64_t key) const { return Mix64(key) & mask_; }

bool EdgeKeySet::Contains(uint64_t key) const {
  size_t i = IdealSlot(key);
  while (slots_[i] != kEmpty) {
    if (slots_[i] == key) return true;
    i = (i + 1) & mask_;
  }
  return false;
}

bool EdgeKeySet::Insert(uint64_t key) {
  size_t i = IdealSlot(key);
  while (slots_[i] != kEmpty) {
    if (slots_[i] == key) return false;
    i = (i + 1) & mask_;
  }
  slots_[i] = key;
  ++size_;
  if (size_ * 10 > slots_.size() * 7) Grow();
  return true;
}

bool EdgeKeySet::Erase(uint64_t key) {
  size_t i = IdealSlot(key);
  while (true) {
    if (slots_[i] == kEmpty) return false;
    if (slots_[i] == key) break;
    i = (i + 1) & mask_;
  }
  --size_;
  // Backward-shift deletion: pull displaced probe-chain members into the
  // hole instead of leaving a tombstone, so lookups stay short under the
  // service's insert/delete churn.
  size_t j = i;
  while (true) {
    slots_[i] = kEmpty;
    while (true) {
      j = (j + 1) & mask_;
      if (slots_[j] == kEmpty) return true;
      const size_t k = IdealSlot(slots_[j]);
      // Leave the record at j when its ideal slot k lies cyclically in
      // (i, j] — the hole at i does not break its probe chain.
      const bool reachable = i <= j ? (k > i && k <= j) : (k > i || k <= j);
      if (!reachable) {
        slots_[i] = slots_[j];
        i = j;
        break;
      }
    }
  }
}

void EdgeKeySet::Grow() {
  std::vector<uint64_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, kEmpty);
  mask_ = slots_.size() - 1;
  for (uint64_t key : old) {
    if (key == kEmpty) continue;
    size_t i = IdealSlot(key);
    while (slots_[i] != kEmpty) i = (i + 1) & mask_;
    slots_[i] = key;
  }
}

// ------------------------------------------------------ DynamicAdjacency --

bool DynamicAdjacency::Insert(NodeId u, NodeId v) {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (!present_.Insert(EdgeKeySet::Key(u, v))) return false;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  ++m_;
  return true;
}

bool DynamicAdjacency::Erase(NodeId u, NodeId v) {
  if (u == v || u >= num_nodes() || v >= num_nodes()) return false;
  if (!present_.Erase(EdgeKeySet::Key(u, v))) return false;
  auto drop = [this](NodeId from, NodeId who) {
    std::vector<NodeId>& list = adj_[from];
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i] == who) {
        list[i] = list.back();
        list.pop_back();
        return;
      }
    }
  };
  drop(u, v);
  drop(v, u);
  --m_;
  return true;
}

EdgeList DynamicAdjacency::ToEdgeList() const {
  EdgeList out(num_nodes());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (NodeId x : adj_[u]) {
      if (x > u) out.Add(u, x);
    }
  }
  return out;
}

Status DynamicAdjacency::RestoreAdjacency(std::vector<std::vector<NodeId>> lists) {
  const NodeId n = num_nodes();
  if (lists.size() != n) {
    return Status::InvalidArgument("adjacency node count mismatch");
  }
  EdgeKeySet present;
  EdgeId m = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId x : lists[u]) {
      if (x == u) return Status::InvalidArgument("self-loop in adjacency");
      if (x >= n) return Status::InvalidArgument("node id out of range");
      if (u < x) {
        if (!present.Insert(EdgeKeySet::Key(u, x))) {
          return Status::InvalidArgument("duplicate edge in adjacency");
        }
        ++m;
      }
    }
  }
  // Symmetry: every u > x entry must have been registered from the x side.
  EdgeId mirrored = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId x : lists[u]) {
      if (u > x) {
        if (!present.Contains(EdgeKeySet::Key(x, u))) {
          return Status::InvalidArgument("asymmetric adjacency");
        }
        ++mirrored;
      }
    }
  }
  if (mirrored != m) return Status::InvalidArgument("asymmetric adjacency");
  adj_ = std::move(lists);
  present_ = std::move(present);
  m_ = m;
  return Status::OK();
}

// ---------------------------------------------------------- DegreeLevels --

namespace {

/// Integer ceiling of a positive threshold, saturated so counters (which
/// never exceed the node count) can simply compare against it.
uint32_t CeilSaturated(double x) {
  const double c = std::ceil(x);
  if (c >= 4294967295.0) return std::numeric_limits<uint32_t>::max();
  return static_cast<uint32_t>(c);
}

}  // namespace

DegreeLevels::DegreeLevels(NodeId n, double d, double epsilon,
                           uint32_t levels)
    : d_(d),
      promote_(2.0 * (1.0 + epsilon) * d),
      demote_(2.0 * d),
      promote_ceil_(CeilSaturated(promote_)),
      demote_ceil_(CeilSaturated(demote_)),
      levels_(levels),
      state_(n),
      level_count_(levels + 1, 0),
      edges_min_level_(levels + 1, 0),
      queued_(n, 0) {
  level_count_[0] = n;
}

void DegreeLevels::PushIfTriggered(NodeId v) {
  if (queued_[v] != 0) return;
  const NodeState& s = state_[v];
  if (PromoteTriggered(s) || DemoteTriggered(s)) {
    queued_[v] = 1;
    work_.push_back(v);
  }
}

uint64_t DegreeLevels::OnInsert(NodeId u, NodeId v,
                                const DynamicAdjacency& adj) {
  NodeState& su = state_[u];
  NodeState& sv = state_[v];
  if (sv.level >= su.level) ++su.up;
  if (sv.level + 1 >= su.level) ++su.near;
  if (su.level >= sv.level) ++sv.up;
  if (su.level + 1 >= sv.level) ++sv.near;
  ++edges_min_level_[std::min(su.level, sv.level)];
  PushIfTriggered(u);
  PushIfTriggered(v);
  if (work_.empty()) return 0;
  return Settle(adj);
}

uint64_t DegreeLevels::OnDelete(NodeId u, NodeId v,
                                const DynamicAdjacency& adj) {
  NodeState& su = state_[u];
  NodeState& sv = state_[v];
  if (sv.level >= su.level) --su.up;
  if (sv.level + 1 >= su.level) --su.near;
  if (su.level >= sv.level) --sv.up;
  if (su.level + 1 >= sv.level) --sv.near;
  --edges_min_level_[std::min(su.level, sv.level)];
  PushIfTriggered(u);
  PushIfTriggered(v);
  if (work_.empty()) return 0;
  return Settle(adj);
}

uint64_t DegreeLevels::Settle(const DynamicAdjacency& adj) {
  uint64_t moves = 0;
  while (!work_.empty()) {
    const NodeId v = work_.back();
    work_.pop_back();
    queued_[v] = 0;
    // Moves are single-level with hysteresis: a fresh promote leaves
    // near_deg = old up_deg >= 2(1+eps)d >= 2d, a fresh demote leaves
    // up_deg = old near_deg < 2d < 2(1+eps)d — so the inner loop can only
    // keep moving in one direction and terminates within `levels_` steps.
    while (true) {
      const NodeState& s = state_[v];
      if (PromoteTriggered(s)) {
        Promote(v, adj);
      } else if (DemoteTriggered(s)) {
        Demote(v, adj);
      } else {
        break;
      }
      ++moves;
    }
  }
  return moves;
}

void DegreeLevels::Promote(NodeId v, const DynamicAdjacency& adj) {
  const uint32_t old = state_[v].level;
  const uint32_t nl = old + 1;
  --level_count_[old];
  ++level_count_[nl];
  state_[v].level = static_cast<uint16_t>(nl);
  uint32_t up = 0;
  uint32_t near = 0;
  const std::span<const NodeId> nb = adj.neighbors(v);
  for (size_t i = 0; i < nb.size(); ++i) {
    // The node states are random 12-byte loads the hardware prefetcher
    // cannot predict; the neighbor list itself is sequential, so feed the
    // prefetcher from a few entries ahead.
    if (i + 8 < nb.size()) __builtin_prefetch(&state_[nb[i + 8]]);
    const NodeId x = nb[i];
    NodeState& sx = state_[x];
    const uint32_t lx = sx.level;
    if (lx >= nl) {
      ++up;
      // The edge's endpoint-level minimum was `old` and is now `nl`.
      --edges_min_level_[old];
      ++edges_min_level_[nl];
    }
    if (lx + 1 >= nl) ++near;
    if (lx == nl) {
      // v rose into x's level: it now counts toward x's up-degree.
      ++sx.up;
      PushIfTriggered(x);
    } else if (lx == nl + 1) {
      // v crossed x's (level - 1) boundary from below.
      ++sx.near;
    }
  }
  state_[v].up = up;
  state_[v].near = near;
}

void DegreeLevels::Demote(NodeId v, const DynamicAdjacency& adj) {
  const uint32_t old = state_[v].level;
  const uint32_t nl = old - 1;
  --level_count_[old];
  ++level_count_[nl];
  state_[v].level = static_cast<uint16_t>(nl);
  uint32_t up = 0;
  uint32_t near = 0;
  const std::span<const NodeId> nb = adj.neighbors(v);
  for (size_t i = 0; i < nb.size(); ++i) {
    if (i + 8 < nb.size()) __builtin_prefetch(&state_[nb[i + 8]]);
    const NodeId x = nb[i];
    NodeState& sx = state_[x];
    const uint32_t lx = sx.level;
    if (lx >= nl) ++up;
    if (lx + 1 >= nl) ++near;
    if (lx >= old) {
      --edges_min_level_[old];
      ++edges_min_level_[nl];
    }
    if (lx == old) {
      // v dropped out of x's level.
      --sx.up;
    } else if (lx == old + 1) {
      // v fell below x's (level - 1) boundary: x may have to follow.
      --sx.near;
      PushIfTriggered(x);
    }
  }
  state_[v].up = up;
  state_[v].near = near;
}

void DegreeLevels::Rebuild(const DynamicAdjacency& adj) {
  const NodeId n = adj.num_nodes();
  for (NodeState& s : state_) s = NodeState{};
  work_.clear();
  std::fill(queued_.begin(), queued_.end(), 0);

  // Static peeling: Z_{i+1} = members of Z_i with deg_{Z_i} above the
  // promote threshold. Once a round promotes everyone, every later round
  // would too — jump those nodes straight to the top level.
  std::vector<NodeId> cur(n);
  std::iota(cur.begin(), cur.end(), NodeId{0});
  std::vector<NodeId> next;
  for (uint32_t i = 0; i < levels_ && !cur.empty(); ++i) {
    next.clear();
    for (NodeId v : cur) {
      uint32_t deg = 0;
      for (NodeId x : adj.neighbors(v)) {
        if (state_[x].level >= i) ++deg;
      }
      if (deg >= promote_ceil_) next.push_back(v);
    }
    if (next.size() == cur.size()) {
      for (NodeId v : cur) state_[v].level = static_cast<uint16_t>(levels_);
      break;
    }
    for (NodeId v : next) state_[v].level = static_cast<uint16_t>(i + 1);
    cur.swap(next);
  }

  RecomputeAggregates(adj);
}

void DegreeLevels::RecomputeAggregates(const DynamicAdjacency& adj) {
  const NodeId n = adj.num_nodes();
  std::fill(level_count_.begin(), level_count_.end(), NodeId{0});
  std::fill(edges_min_level_.begin(), edges_min_level_.end(), EdgeId{0});
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t lv = state_[v].level;
    ++level_count_[lv];
    uint32_t up = 0;
    uint32_t near = 0;
    for (NodeId x : adj.neighbors(v)) {
      const uint32_t lx = state_[x].level;
      if (lx >= lv) ++up;
      if (lx + 1 >= lv) ++near;
      if (x > v) ++edges_min_level_[std::min(lv, lx)];
    }
    state_[v].up = up;
    state_[v].near = near;
  }
}

Status DegreeLevels::RestoreLevels(const DynamicAdjacency& adj,
                                   std::span<const uint16_t> levels) {
  if (levels.size() != state_.size() ||
      adj.num_nodes() != static_cast<NodeId>(state_.size())) {
    return Status::InvalidArgument("level-array size mismatch");
  }
  for (uint16_t l : levels) {
    if (l > levels_) return Status::InvalidArgument("level above the ladder");
  }
  for (size_t v = 0; v < levels.size(); ++v) {
    state_[v] = NodeState{};
    state_[v].level = levels[v];
  }
  work_.clear();
  std::fill(queued_.begin(), queued_.end(), 0);
  RecomputeAggregates(adj);
  return Status::OK();
}

Status DegreeLevels::CheckInvariants(const DynamicAdjacency& adj) const {
  const NodeId n = adj.num_nodes();
  if (static_cast<NodeId>(state_.size()) != n) {
    return Status::Internal("levels: node count mismatch");
  }
  std::vector<NodeId> level_count(levels_ + 1, 0);
  std::vector<EdgeId> edges_min(levels_ + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    const NodeState& s = state_[v];
    if (s.level > levels_) {
      return Status::Internal("node " + std::to_string(v) +
                              " above the level ladder");
    }
    ++level_count[s.level];
    uint32_t up = 0;
    uint32_t near = 0;
    for (NodeId x : adj.neighbors(v)) {
      const uint32_t lx = state_[x].level;
      if (lx >= s.level) ++up;
      if (lx + 1 >= s.level) ++near;
      if (x > v) ++edges_min[std::min<uint32_t>(s.level, lx)];
    }
    if (up != s.up) {
      return Status::Internal("node " + std::to_string(v) + ": up_deg " +
                              std::to_string(s.up) + " != recount " +
                              std::to_string(up));
    }
    if (near != s.near) {
      return Status::Internal("node " + std::to_string(v) + ": near_deg " +
                              std::to_string(s.near) + " != recount " +
                              std::to_string(near));
    }
    if (PromoteTriggered(s)) {
      return Status::Internal("node " + std::to_string(v) +
                              " holds an unsettled promote trigger");
    }
    if (DemoteTriggered(s)) {
      return Status::Internal("node " + std::to_string(v) +
                              " holds an unsettled demote trigger");
    }
  }
  for (uint32_t i = 0; i <= levels_; ++i) {
    if (level_count[i] != level_count_[i]) {
      return Status::Internal("level " + std::to_string(i) + ": node count " +
                              std::to_string(level_count_[i]) +
                              " != recount " + std::to_string(level_count[i]));
    }
    if (edges_min[i] != edges_min_level_[i]) {
      return Status::Internal(
          "level " + std::to_string(i) + ": edge minimum count " +
          std::to_string(edges_min_level_[i]) + " != recount " +
          std::to_string(edges_min[i]));
    }
  }
  return Status::OK();
}

DegreeLevels::BestLevel DegreeLevels::FindBestLevel() const {
  BestLevel best;
  NodeId nodes = 0;
  EdgeId edges = 0;
  bool first = true;
  for (uint32_t i = levels_ + 1; i-- > 0;) {
    nodes += level_count_[i];
    edges += edges_min_level_[i];
    if (nodes == 0) continue;
    const double rho =
        static_cast<double>(edges) / static_cast<double>(nodes);
    if (first || rho > best.density) {
      best.density = rho;
      best.level = i;
      best.nodes = nodes;
      best.edges = edges;
      first = false;
    }
  }
  return best;
}

std::vector<NodeId> DegreeLevels::CollectLevelSet(uint32_t level) const {
  std::vector<NodeId> out;
  // |Z_level| is known from the level counts; sizing once spares every
  // publication the vector's regrowth copies.
  NodeId size = 0;
  for (uint32_t i = level; i <= levels_; ++i) size += level_count_[i];
  out.reserve(size);
  for (NodeId v = 0; v < static_cast<NodeId>(state_.size()); ++v) {
    if (state_[v].level >= level) out.push_back(v);
  }
  return out;
}

}  // namespace densest
