#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <numeric>

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return 0;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // A non-finite value is not JSON; report it as 0 so the run still
    // parses (the contract reads such a metric as broken).
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (q <= 0) return v.front();
  // Nearest rank; the median of an even sample averages the middle two.
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  Rng r(seed * 0x9e3779b97f4a7c15ULL + tag);
  return r.Next();
}

namespace {

using densest::Edge;
using densest::NodeId;

/// Insert-only open-addressing set of packed (u, v) keys; drops repeats while
/// the caller keeps generation order.
class KeySet {
 public:
  explicit KeySet(uint64_t expected) {
    uint64_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
  }
  bool Insert(uint64_t key) {
    uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    for (uint64_t i = (h >> 20) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = key;
        return true;
      }
    }
  }

 private:
  static constexpr uint64_t kEmpty = ~0ULL;
  std::vector<uint64_t> slots_;
  uint64_t mask_ = 0;
};

/// Vose alias table over non-negative weights: O(1) weighted sampling.
class AliasTable {
 public:
  explicit AliasTable(const std::vector<double>& w) {
    const size_t n = w.size();
    prob_.resize(n);
    alias_.resize(n);
    const double total = std::accumulate(w.begin(), w.end(), 0.0);
    std::vector<double> scaled(n);
    std::vector<uint32_t> small, large;
    for (size_t i = 0; i < n; ++i) {
      scaled[i] = w[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const uint32_t s = small.back(), l = large.back();
      small.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (uint32_t i : large) prob_[i] = 1.0, alias_[i] = i;
    for (uint32_t i : small) prob_[i] = 1.0, alias_[i] = i;
  }
  uint32_t Sample(Rng& rng) const {
    const uint64_t i = rng.Below(prob_.size());
    return rng.Unit() < prob_[i] ? static_cast<uint32_t>(i) : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

std::vector<NodeId> RandomPermutation(NodeId n, Rng& rng) {
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  for (NodeId i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  return perm;
}

uint64_t UndirectedKey(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

std::vector<Edge> ChungLuWithBlock(NodeId n, uint64_t m, double exponent,
                                   NodeId block, double block_p,
                                   uint64_t seed) {
  Rng rng(seed);
  const double gamma = 1.0 / (exponent - 1.0);
  std::vector<double> w(n);
  for (NodeId i = 0; i < n; ++i) w[i] = std::pow(i + 10.0, -gamma);
  const AliasTable table(w);
  const std::vector<NodeId> ids = RandomPermutation(n, rng);

  std::vector<Edge> edges;
  edges.reserve(m + static_cast<uint64_t>(block) * block / 2);
  KeySet seen(m + static_cast<uint64_t>(block) * block / 2);
  // Duplicate draws among hubs are rejected, so the loop runs a little
  // longer than m draws; a cap guards against a degenerate weight vector.
  for (uint64_t draws = 0; edges.size() < m && draws < 4 * m; ++draws) {
    const NodeId u = ids[table.Sample(rng)];
    const NodeId v = ids[table.Sample(rng)];
    if (u != v && seen.Insert(UndirectedKey(u, v))) edges.emplace_back(u, v);
  }
  std::vector<NodeId> members(block);
  for (NodeId& x : members) x = static_cast<NodeId>(rng.Below(n));
  for (NodeId i = 0; i < block; ++i) {
    for (NodeId j = i + 1; j < block; ++j) {
      const NodeId u = members[i], v = members[j];
      if (u != v && rng.Unit() < block_p && seen.Insert(UndirectedKey(u, v))) {
        edges.emplace_back(u, v);
      }
    }
  }
  return edges;
}

std::vector<Edge> RmatTwitterShape(int scale, uint64_t m, NodeId celebs,
                                   NodeId followers, uint64_t seed) {
  Rng rng(seed);
  const NodeId n = NodeId{1} << scale;
  const double a = 0.55, b = 0.20, c = 0.15;
  std::vector<Edge> arcs;
  arcs.reserve(m + static_cast<uint64_t>(celebs) * followers);
  KeySet seen(m + static_cast<uint64_t>(celebs) * followers);
  for (uint64_t draws = 0; arcs.size() < m && draws < 4 * m; ++draws) {
    NodeId u = 0, v = 0;
    for (int level = 0; level < scale; ++level) {
      // Quadrants a | b over c | d: b and d set the column bit, c and d the
      // row bit.
      const double r = rng.Unit();
      u = (u << 1) | (r >= a + b ? 1 : 0);
      v = (v << 1) | ((r >= a && r < a + b) || r >= a + b + c ? 1 : 0);
    }
    if (u != v && seen.Insert((static_cast<uint64_t>(u) << 32) | v)) {
      arcs.emplace_back(u, v);
    }
  }
  const std::vector<NodeId> pool = RandomPermutation(n, rng);
  for (NodeId f = celebs; f < celebs + followers; ++f) {
    for (NodeId s = 0; s < celebs; ++s) {
      const NodeId u = pool[f], v = pool[s];
      const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
      if (rng.Unit() < 0.85 && seen.Insert(key)) {
        arcs.emplace_back(u, v);
      }
    }
  }
  return arcs;
}

}  // namespace perfbench
