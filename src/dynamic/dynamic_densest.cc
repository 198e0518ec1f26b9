#include "dynamic/dynamic_densest.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common/cancel.h"
#include "core/algorithm1.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/memory_stream.h"

namespace densest {

namespace {

/// Bottom of the threshold grid. With promote = 2(1+eps)d0 <= 1 for
/// eps <= 1, any node with an edge climbs off level 0 at slot 0, so the
/// slot-0 certificate is nonempty exactly when the graph has an edge.
constexpr double kBaseThreshold = 0.25;

}  // namespace

StatusOr<std::unique_ptr<DynamicDensest>> DynamicDensest::Create(
    NodeId n, const DynamicDensestOptions& options) {
  if (n == 0) return Status::InvalidArgument("graph has no nodes");
  if (!(options.epsilon >= 0.01 && options.epsilon <= 1.0)) {
    return Status::InvalidArgument("epsilon must be in [0.01, 1]");
  }
  if (options.recompute_epsilon < 0) {
    return Status::InvalidArgument("recompute_epsilon must be >= 0");
  }
  if (options.trim_hysteresis == 0) {
    return Status::InvalidArgument("trim_hysteresis must be >= 1");
  }
  if (options.recompute_deadline_ms < 0) {
    return Status::InvalidArgument("recompute_deadline_ms must be >= 0");
  }
  if (options.recompute_rearm_updates == 0) {
    return Status::InvalidArgument("recompute_rearm_updates must be >= 1");
  }
  return std::unique_ptr<DynamicDensest>(new DynamicDensest(n, options));
}

StatusOr<std::unique_ptr<DynamicDensest>> DynamicDensest::FromSnapshotState(
    NodeId n, const DynamicDensestOptions& options,
    std::vector<std::vector<NodeId>> adjacency, uint32_t lo,
    std::vector<std::vector<uint16_t>> slot_levels, uint32_t trim_streak,
    const DynamicDensestStats& stats, const OverloadState& overload) {
  StatusOr<std::unique_ptr<DynamicDensest>> created = Create(n, options);
  if (!created.ok()) return created.status();
  // The deadline recompute shifts by cancel_streak and the stale band
  // grows from last_cert_upper over the inserts since last_cert_inserts;
  // only values the engine itself can reach are restored.
  if (overload.cancel_streak > kMaxCancelStreak) {
    return Status::InvalidArgument("snapshot cancel_streak above the cap");
  }
  if (!std::isfinite(overload.last_cert_upper) ||
      overload.last_cert_upper < 0) {
    return Status::InvalidArgument(
        "snapshot last_cert_upper is negative or not finite");
  }
  if (overload.last_cert_inserts > stats.inserts) {
    return Status::InvalidArgument(
        "snapshot last_cert_inserts above its insert count");
  }
  DynamicDensest& e = **created;
  Status s = e.adj_.RestoreAdjacency(std::move(adjacency));
  if (!s.ok()) return s;
  if (slot_levels.empty()) {
    return Status::InvalidArgument("snapshot maintains no slots");
  }
  const uint64_t hi = lo + static_cast<uint64_t>(slot_levels.size()) - 1;
  if (hi > e.max_slot_) {
    return Status::InvalidArgument("snapshot window above the threshold grid");
  }
  e.lo_ = lo;
  e.slots_.clear();
  e.slots_.reserve(slot_levels.size());
  for (size_t i = 0; i < slot_levels.size(); ++i) {
    e.slots_.emplace_back(n, e.ThresholdOf(lo + static_cast<uint32_t>(i)),
                          options.epsilon, e.levels_);
    s = e.slots_.back().RestoreLevels(e.adj_, slot_levels[i]);
    if (!s.ok()) return s;
  }
  e.trim_streak_ = trim_streak;
  e.stats_ = stats;
  // The stale tally lives in its own relaxed atomic (see stats()); the
  // plain field in stats_ stays zero so the merge never double-counts.
  e.stale_answers_served_.store(stats.stale_answers_served,
                                std::memory_order_relaxed);
  e.stats_.stale_answers_served = 0;
  e.recompute_pending_ = overload.pending;
  e.cancel_streak_ = overload.cancel_streak;
  e.rearm_at_updates_ = overload.rearm_at_updates;
  e.last_cert_upper_ = overload.last_cert_upper;
  e.last_cert_inserts_ = overload.last_cert_inserts;
  return created;
}

DynamicDensest::DynamicDensest(NodeId n, const DynamicDensestOptions& options)
    : options_(options), adj_(n) {
  const double ln_ratio = std::log1p(options_.epsilon);
  // (1+eps)^levels > n makes the pigeonhole certificate exact: a nonempty
  // top level forces some Z_i to shrink by less than (1+eps).
  levels_ = static_cast<uint32_t>(
                std::floor(std::log(static_cast<double>(n)) / ln_ratio)) +
            1;
  // Top of the grid: the first threshold certainly above (1+eps) rho*_max,
  // where every top level is provably empty without maintaining it.
  const double cap = (1.0 + options_.epsilon) * static_cast<double>(n) / 2.0;
  double d = kBaseThreshold;
  uint32_t k = 0;
  while (d < cap) {
    d *= 1.0 + options_.epsilon;
    ++k;
  }
  max_slot_ = k + 1;
  // How far above the window's low end the certifying slot may sit before
  // a re-center pays off: the gap between a density's guaranteed-nonempty
  // slot (rho / 2(1+eps)) and the highest slot its certificate can reach
  // ((1+eps) rho) is log_{1+eps} 2(1+eps)^2 slots; beyond that plus the
  // radius, the window is dragging low slots the certificate no longer
  // needs — and low slots are the expensive ones to maintain (every node
  // above their threshold climbs the full ladder).
  trim_span_ = static_cast<uint32_t>(std::ceil(
                   std::log(2.0 * (1.0 + options_.epsilon) *
                            (1.0 + options_.epsilon)) /
                   ln_ratio)) +
               options_.window_radius;

  // Start narrow: the first certificate degrade recomputes over a tiny
  // edge set and re-centers for free, so booting with a tall window would
  // only pay extra low-slot maintenance during the initial ramp.
  lo_ = 0;
  const uint32_t hi = std::min(max_slot_, options_.window_radius + 1);
  slots_.reserve(hi + 1);
  for (uint32_t s = 0; s <= hi; ++s) {
    slots_.emplace_back(n, ThresholdOf(s), options_.epsilon, levels_);
  }
}

double DynamicDensest::ThresholdOf(uint32_t slot) const {
  return kBaseThreshold *
         std::pow(1.0 + options_.epsilon, static_cast<double>(slot));
}

uint32_t DynamicDensest::SlotBelow(double rho) const {
  if (!(rho > kBaseThreshold)) return 0;
  const uint32_t k = static_cast<uint32_t>(std::floor(
      std::log(rho / kBaseThreshold) / std::log1p(options_.epsilon)));
  return std::min(k, max_slot_);
}

int DynamicDensest::FindCertifyingSlot() const {
  for (size_t i = slots_.size(); i-- > 0;) {
    if (slots_[i].top_count() > 0) return static_cast<int>(lo_ + i);
  }
  return -1;
}

bool DynamicDensest::Degraded(int k_star) const {
  if (k_star < 0) return lo_ > 0;
  const uint32_t hi = window_hi();
  // A certificate at the top slot has no maintained empty neighbor above
  // it — unless the window already touches the analytic top of the grid,
  // where emptiness needs no structure.
  return static_cast<uint32_t>(k_star) == hi && hi < max_slot_;
}

void DynamicDensest::Apply(const EdgeUpdate& update) {
  const NodeId u = update.u;
  const NodeId v = update.v;
  if (update.is_insert()) {
    if (!adj_.Insert(u, v)) {
      ++stats_.ignored;
      return;
    }
    ++stats_.inserts;
    for (DegreeLevels& slot : slots_) {
      stats_.level_moves += slot.OnInsert(u, v, adj_);
    }
  } else {
    if (!adj_.Erase(u, v)) {
      ++stats_.ignored;
      return;
    }
    ++stats_.deletes;
    for (DegreeLevels& slot : slots_) {
      stats_.level_moves += slot.OnDelete(u, v, adj_);
    }
  }
  MaybeFallback();
}

void DynamicDensest::ApplyBatch(std::span<const EdgeUpdate> batch) {
  DENSEST_TRACE_SPAN("dynamic.apply_batch");
  const DynamicDensestStats before = stats_;
  for (const EdgeUpdate& update : batch) Apply(update);
  // Registry mirror of the per-run struct, diffed once per batch: the
  // per-update path (>1M updates/s) stays free of atomics, and the
  // cross-command metrics plane still sees every applied batch. Callers
  // driving Apply() directly (tests, mostly) are visible through stats().
  const DynamicDensestStats& after = stats_;
  DENSEST_METRIC_COUNTER("dynamic.inserts").Inc(after.inserts - before.inserts);
  DENSEST_METRIC_COUNTER("dynamic.deletes").Inc(after.deletes - before.deletes);
  DENSEST_METRIC_COUNTER("dynamic.ignored").Inc(after.ignored - before.ignored);
  DENSEST_METRIC_COUNTER("dynamic.level_moves")
      .Inc(after.level_moves - before.level_moves);
  DENSEST_METRIC_COUNTER("dynamic.recomputes")
      .Inc(after.recomputes - before.recomputes);
  DENSEST_METRIC_COUNTER("dynamic.recomputes_cancelled")
      .Inc(after.recomputes_cancelled - before.recomputes_cancelled);
  DENSEST_METRIC_COUNTER("dynamic.window_moves")
      .Inc(after.window_moves - before.window_moves);
}

void DynamicDensest::MaybeFallback() {
  if (options_.fallback == DynamicFallback::kNever) return;
  // Overload protection: while a deadline-cancelled recompute is pending,
  // absorb updates (serving the widened stale band from Query) instead of
  // re-attempting the slow path on every one. Deletions can heal the
  // degradation on their own, so a restored certificate falls through to
  // the normal path below, which clears the pending state.
  if (recompute_pending_ &&
      stats_.inserts + stats_.deletes < rearm_at_updates_ &&
      Degraded(FindCertifyingSlot())) {
    return;
  }
  // Each pass either clears the degradation or moves the window strictly
  // toward it; the guard only bounds pathological numerics.
  for (uint32_t guard = 0; guard <= max_slot_ + 2; ++guard) {
    const int k_star = FindCertifyingSlot();
    if (!Degraded(k_star)) {
      // A live certificate: remember its upper bound so a future
      // deadline-cancelled recompute has a base to widen from, and clear
      // any pending slow path — the window serves again.
      if (k_star >= 0) {
        last_cert_upper_ = 2.0 * (1.0 + options_.epsilon) *
                           ThresholdOf(static_cast<uint32_t>(k_star) + 1);
        last_cert_inserts_ = stats_.inserts;
      }
      recompute_pending_ = false;
      cancel_streak_ = 0;
      // Valid certificate — but when it has drifted far above the
      // window's low end, the window is dragging low slots it no longer
      // serves from, and low slots are the expensive ones to maintain
      // (every node above their threshold climbs the full ladder). Trim
      // the bottom to a fall-cushion below k*: free — every kept slot
      // stays live, nothing is rebuilt, and if density later falls
      // through the cushion the ordinary fallback re-centers downward.
      // Hysteresis: a density hovering at a slot boundary flips this
      // condition on and off every few updates, and each trim drops low
      // slots that the very next dip re-enters at recompute+rebuild cost.
      // Trim only once the drift has held for trim_hysteresis consecutive
      // updates; a streak that dies earlier was a transient excursion
      // whose trim (and follow-up recompute) we avoided.
      if (k_star >= 0 && static_cast<uint32_t>(k_star) > lo_ + trim_span_) {
        if (++trim_streak_ >= options_.trim_hysteresis) {
          const uint32_t cushion = trim_span_ > 2 ? trim_span_ - 2 : 0;
          MoveWindow(static_cast<uint32_t>(k_star) - cushion, window_hi());
        } else {
          ++stats_.trims_deferred;
        }
      } else if (trim_streak_ > 0) {
        trim_streak_ = 0;
        ++stats_.recomputes_avoided;
      }
      return;
    }
    const uint32_t width = static_cast<uint32_t>(slots_.size());
    const uint32_t radius = options_.window_radius;
    if (options_.fallback == DynamicFallback::kRecompute) {
      // The batch slow path: Algorithm 1 over a frozen snapshot of the
      // live edges, on the service's own engine.
      EdgeList snapshot = adj_.ToEdgeList();
      if (snapshot.empty()) {
        MoveWindow(0, std::min(max_slot_, radius + 1));
        continue;
      }
      if (engine_ == nullptr) {
        engine_ = std::make_unique<PassEngine>(options_.engine_options);
      }
      EdgeListStream stream(snapshot);
      Algorithm1Options ropt;
      ropt.epsilon = options_.recompute_epsilon;
      ropt.record_trace = false;
      ropt.engine = engine_.get();
      StatusOr<UndirectedDensestResult> r = [&]() {
        DENSEST_TRACE_SPAN("dynamic.recompute");
        if (options_.recompute_deadline_ms > 0) {
          // The overload budget, doubled per consecutive cancellation so a
          // graph that has genuinely outgrown the configured budget still
          // converges instead of re-shedding the same work forever. The
          // token lives on this frame only — RunAlgorithm1 returns before
          // it dies.
          CancelToken deadline = CancelToken::WithDeadlineAfterMs(
              options_.recompute_deadline_ms *
              static_cast<double>(uint64_t{1} << cancel_streak_));
          ropt.cancel = &deadline;
          return RunAlgorithm1(stream, ropt);
        }
        return RunAlgorithm1(stream, ropt);
      }();
      if (!r.ok() && r.status().IsCancellation()) {
        // The recompute blew its deadline. Keep serving the last
        // certificate widened to the pending band (see Query), absorb
        // recompute_rearm_updates more updates before retrying, and do
        // NOT fall through to the kRebuildOnly slide — its rebuilds scan
        // the same oversized edge set the deadline just shed.
        ++stats_.recomputes_cancelled;
        recompute_pending_ = true;
        if (cancel_streak_ < kMaxCancelStreak) ++cancel_streak_;
        rearm_at_updates_ = stats_.inserts + stats_.deletes +
                            options_.recompute_rearm_updates;
        return;
      }
      // In-memory streams cannot fail; a defensive slide keeps the engine
      // live if they somehow do.
      if (r.ok()) {
        recompute_pending_ = false;
        cancel_streak_ = 0;
        const double rho = r->density;
        ++stats_.recomputes;
        stats_.last_recompute_density = rho;
        // The recompute sandwiches rho* in [rho, (2+2eps_r) rho]; pick the
        // window that provably certifies anything in that range, plus the
        // configured slack on both sides.
        const double eps = options_.epsilon;
        const double lower_need = rho / (2.0 * (1.0 + eps));
        const double upper_need =
            (1.0 + eps) * (2.0 + 2.0 * options_.recompute_epsilon) * rho;
        // The low end needs no extra radius: klo is itself a guaranteed
        // cushion (its top level is provably nonempty at rho_b), sitting
        // ~log_{1+eps} 2(1+eps)^2 slots below where the certificate will
        // land. Low slots are also the expensive ones to maintain — every
        // node above their threshold climbs all the way — so the window
        // extends only upward, where slots are nearly free.
        const uint32_t new_lo = SlotBelow(lower_need);
        const uint32_t khi = std::min(max_slot_, SlotBelow(upper_need) + 1);
        const uint32_t new_hi =
            std::min(max_slot_, std::max(khi + radius, new_lo));
        // The recompute names this window as the best placement; if it is
        // already the current one, there is nothing better to move to
        // (e.g. a drift whose batch density still maps to the same slots).
        if (new_lo == lo_ && new_hi == window_hi()) return;
        MoveWindow(new_lo, new_hi);
        continue;
      }
    }
    // kRebuildOnly (and the defensive recompute-failure path): slide one
    // radius toward the degradation.
    const uint32_t shift = radius + 1;
    uint32_t new_lo;
    uint32_t new_hi;
    if (k_star >= 0) {
      new_hi = std::min(max_slot_, window_hi() + shift);
      new_lo = new_hi >= width - 1 ? new_hi - (width - 1) : 0;
    } else {
      new_lo = lo_ > shift ? lo_ - shift : 0;
      new_hi = std::min(max_slot_, new_lo + width - 1);
    }
    MoveWindow(new_lo, new_hi);
  }
}

void DynamicDensest::MoveWindow(uint32_t new_lo, uint32_t new_hi) {
  const uint32_t old_hi = window_hi();
  std::vector<DegreeLevels> next;
  next.reserve(new_hi - new_lo + 1);
  for (uint32_t s = new_lo; s <= new_hi; ++s) {
    if (s >= lo_ && s <= old_hi) {
      // Structures already live stay live — their state is maintained
      // continuously and needs no rebuild.
      next.push_back(std::move(slots_[s - lo_]));
    } else {
      next.emplace_back(adj_.num_nodes(), ThresholdOf(s), options_.epsilon,
                        levels_);
      next.back().Rebuild(adj_);
      ++stats_.structures_rebuilt;
    }
  }
  slots_ = std::move(next);
  lo_ = new_lo;
  trim_streak_ = 0;  // the drift condition is relative to the new low end
  ++stats_.window_moves;
}

DynamicDensest::Answer DynamicDensest::Query() const {
  Answer answer;
  const int k_star = FindCertifyingSlot();
  if (k_star < 0 && lo_ == 0 && adj_.num_edges() == 0) {
    // Empty graph: rho* = 0, certified trivially.
    return answer;
  }
  if (k_star >= 0 && !Degraded(k_star)) {
    const DegreeLevels& slot = slots_[k_star - lo_];
    const DegreeLevels::BestLevel best = slot.FindBestLevel();
    answer.density = best.density;
    answer.size = best.nodes;
    answer.upper_bound = 2.0 * (1.0 + options_.epsilon) *
                         ThresholdOf(static_cast<uint32_t>(k_star) + 1);
    answer.certified = true;
    return answer;
  }
  if (recompute_pending_) {
    // Overload path: a deadline-cancelled recompute is pending. Serve the
    // densest maintained level set under the last certificate widened by
    // the growth bound — rho* rises by at most 1/2 per insertion (the new
    // optimum gains at most the inserted edge over a set of size >= 2)
    // and never rises on a deletion — so the band stays sound, just
    // loosening by 1/2 per insert until the recompute re-arms and lands.
    answer.certified = true;
    answer.stale = true;
    answer.upper_bound =
        last_cert_upper_ +
        0.5 * static_cast<double>(stats_.inserts - last_cert_inserts_);
    for (const DegreeLevels& slot : slots_) {
      const DegreeLevels::BestLevel best = slot.FindBestLevel();
      if (best.density > answer.density) {
        answer.density = best.density;
        answer.size = best.nodes;
      }
    }
    stale_answers_served_.fetch_add(1, std::memory_order_relaxed);
    DENSEST_METRIC_COUNTER("dynamic.stale_answers_served").Inc();
    return answer;
  }
  // Degraded window (DynamicFallback::kNever): best effort over whatever
  // is maintained, flagged uncertified; upper_bound is meaningless.
  answer.certified = false;
  for (const DegreeLevels& slot : slots_) {
    const DegreeLevels::BestLevel best = slot.FindBestLevel();
    if (best.density > answer.density) {
      answer.density = best.density;
      answer.size = best.nodes;
    }
  }
  return answer;
}

std::vector<NodeId> DynamicDensest::DensestNodes() const {
  const int k_star = FindCertifyingSlot();
  if (k_star < 0) return {};
  const DegreeLevels* best_slot = &slots_[k_star - lo_];
  DegreeLevels::BestLevel best = best_slot->FindBestLevel();
  if (Degraded(k_star)) {
    for (const DegreeLevels& slot : slots_) {
      const DegreeLevels::BestLevel b = slot.FindBestLevel();
      if (b.density > best.density) {
        best = b;
        best_slot = &slot;
      }
    }
  }
  return best_slot->CollectLevelSet(best.level);
}

double DynamicDensest::ApproxBand() const {
  const double r = 1.0 + options_.epsilon;
  return 2.0 * r * r * r;
}

Status DynamicDensest::CheckInvariants() const {
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (Status s = slots_[i].CheckInvariants(adj_); !s.ok()) {
      return Status::Internal("slot " + std::to_string(lo_ + i) + ": " +
                              s.message());
    }
  }
  return Status::OK();
}

}  // namespace densest
