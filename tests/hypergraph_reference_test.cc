// Differential tests of the partitioner's hot paths against the simple
// implementations they replaced, kept here as references: FM refinement
// that recomputes the gain of every pin of every net of a moved vertex and
// picks from one lazy heap, and coarsening that merges identical nets
// through a map of per-hash buckets of pin vectors. The fast paths must
// give bit-identical partitions and coarse hypergraphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hypergraph/coarsen.h"
#include "hypergraph/fm.h"
#include "hypergraph/metrics.h"
#include "util/rng.h"

namespace bsio::hg {
namespace {

// ---------------------------------------------------------------------------
// Reference FM: full recomputation after every move, one heap for both sides.

struct RefHeapEntry {
  double gain;
  double tie;
  VertexId v;
  bool operator<(const RefHeapEntry& o) const {
    if (gain != o.gain) return gain < o.gain;
    return tie < o.tie;
  }
};

class RefFmPass {
 public:
  RefFmPass(const Hypergraph& h, std::vector<int>& side,
            const BisectionConstraint& c, Rng& rng)
      : h_(h), side_(side), c_(c), rng_(rng) {}

  double run() {
    init();
    const std::size_t nv = h_.num_vertices();
    double cum_gain = 0.0;
    double best_gain = 0.0;
    std::size_t best_len = 0;
    std::vector<VertexId> moved;
    while (moved.size() < nv) {
      VertexId v = pop_best_movable();
      if (v == kNone) break;
      cum_gain += gain_[v];
      apply_move(v);
      locked_[v] = true;
      moved.push_back(v);
      if (cum_gain > best_gain + 1e-12 ||
          (cum_gain > best_gain - 1e-12 && better_balance())) {
        best_gain = cum_gain;
        best_len = moved.size();
      }
    }
    for (std::size_t i = moved.size(); i > best_len; --i)
      apply_move(moved[i - 1], /*update_gains=*/false);
    return best_gain;
  }

 private:
  static constexpr VertexId kNone = static_cast<VertexId>(-1);

  void init() {
    const std::size_t nv = h_.num_vertices();
    pc_.assign(h_.num_nets() * 2, 0);
    for (NetId n = 0; n < h_.num_nets(); ++n)
      for (VertexId v : h_.pins(n)) ++pc_[n * 2 + side_[v]];
    for (VertexId v = 0; v < nv; ++v) weight_[side_[v]] += h_.vertex_weight(v);
    locked_.assign(nv, false);
    gain_.assign(nv, 0.0);
    tie_.assign(nv, 0.0);
    for (VertexId v = 0; v < nv; ++v) gain_[v] = compute_gain(v);
    for (VertexId v = 0; v < nv; ++v) {
      tie_[v] = rng_.uniform_double();
      heap_.push({gain_[v], tie_[v], v});
    }
  }

  double compute_gain(VertexId v) const {
    const int s = side_[v];
    double g = 0.0;
    for (NetId n : h_.nets(v)) {
      if (pc_[n * 2 + s] == 1) g += h_.net_weight(n);
      if (pc_[n * 2 + (1 - s)] == 0) g -= h_.net_weight(n);
    }
    return g;
  }

  bool move_allowed(VertexId v) const {
    const int s = side_[v];
    const double wv = h_.vertex_weight(v);
    const double dst_max = s == 0 ? c_.max1 : c_.max0;
    const double dst_w = weight_[1 - s];
    if (dst_w + wv <= dst_max) return true;
    const double src_max = s == 0 ? c_.max0 : c_.max1;
    return weight_[s] > src_max && dst_w + wv < weight_[s];
  }

  VertexId pop_best_movable() {
    std::vector<RefHeapEntry> skipped;
    VertexId found = kNone;
    while (!heap_.empty()) {
      RefHeapEntry e = heap_.top();
      heap_.pop();
      if (locked_[e.v]) continue;
      if (e.gain != gain_[e.v]) continue;
      if (!move_allowed(e.v)) {
        skipped.push_back(e);
        continue;
      }
      found = e.v;
      break;
    }
    for (const auto& e : skipped) heap_.push(e);
    return found;
  }

  void apply_move(VertexId v, bool update_gains = true) {
    const int s = side_[v];
    side_[v] = 1 - s;
    weight_[s] -= h_.vertex_weight(v);
    weight_[1 - s] += h_.vertex_weight(v);
    for (NetId n : h_.nets(v)) {
      --pc_[n * 2 + s];
      ++pc_[n * 2 + (1 - s)];
      if (!update_gains) continue;
      for (VertexId u : h_.pins(n)) {
        if (u == v || locked_[u]) continue;
        double g = compute_gain(u);
        if (g != gain_[u]) {
          gain_[u] = g;
          heap_.push({g, tie_[u], u});
        }
      }
    }
  }

  bool better_balance() const {
    return std::abs(weight_[0] - c_.target0) <
                   std::abs(prev_best_dev_) - 1e-12
               ? (prev_best_dev_ = std::abs(weight_[0] - c_.target0), true)
               : false;
  }

  const Hypergraph& h_;
  std::vector<int>& side_;
  const BisectionConstraint& c_;
  Rng& rng_;
  std::vector<int> pc_;
  double weight_[2] = {0.0, 0.0};
  std::vector<bool> locked_;
  std::vector<double> gain_;
  std::vector<double> tie_;
  std::priority_queue<RefHeapEntry> heap_;
  mutable double prev_best_dev_ = std::numeric_limits<double>::infinity();
};

double reference_fm_refine(const Hypergraph& h, std::vector<int>& side,
                           const BisectionConstraint& c, Rng& rng,
                           int passes) {
  for (int p = 0; p < passes; ++p) {
    RefFmPass pass(h, side, c, rng);
    if (pass.run() <= 1e-12) break;
  }
  return cut_net_weight(h, side, 2);
}

// ---------------------------------------------------------------------------
// Reference coarsening: identical nets merged through per-hash buckets.

std::uint64_t reference_hash_pins(const std::vector<VertexId>& pins) {
  std::uint64_t hval = 1469598103934665603ULL;
  for (VertexId v : pins) {
    hval ^= v + 0x9e3779b97f4a7c15ULL + (hval << 6) + (hval >> 2);
    hval *= 1099511628211ULL;
  }
  return hval;
}

CoarseLevel reference_coarsen_once(const Hypergraph& h, Rng& rng,
                                   double max_cluster_weight) {
  const std::size_t nv = h.num_vertices();
  constexpr VertexId kNone = static_cast<VertexId>(-1);
  std::vector<VertexId> cluster(nv, kNone);
  std::vector<double> cluster_weight;
  std::vector<VertexId> order(nv);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<double> score(nv, 0.0);
  std::vector<VertexId> touched;
  for (VertexId v : order) {
    if (cluster[v] != kNone) continue;
    touched.clear();
    for (NetId n : h.nets(v)) {
      const double contrib =
          h.net_weight(n) / static_cast<double>(h.net_size(n) - 1);
      for (VertexId u : h.pins(n)) {
        if (u == v || cluster[u] == kNone) continue;
        VertexId c = cluster[u];
        if (score[c] == 0.0) touched.push_back(c);
        score[c] += contrib;
      }
    }
    VertexId best = kNone;
    double best_score = 0.0;
    for (VertexId c : touched) {
      if (score[c] > best_score &&
          cluster_weight[c] + h.vertex_weight(v) <= max_cluster_weight) {
        best = c;
        best_score = score[c];
      }
      score[c] = 0.0;
    }
    if (best == kNone) {
      cluster[v] = static_cast<VertexId>(cluster_weight.size());
      cluster_weight.push_back(h.vertex_weight(v));
    } else {
      cluster[v] = best;
      cluster_weight[best] += h.vertex_weight(v);
    }
  }
  const std::size_t nc = cluster_weight.size();
  std::vector<double> folded(nc, 0.0);
  for (VertexId v = 0; v < nv; ++v)
    folded[cluster[v]] += h.folded_net_weight(v);

  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::vector<VertexId>, double>>>
      merged;
  std::vector<VertexId> cpins;
  for (NetId n = 0; n < h.num_nets(); ++n) {
    cpins.clear();
    for (VertexId v : h.pins(n)) cpins.push_back(cluster[v]);
    std::sort(cpins.begin(), cpins.end());
    cpins.erase(std::unique(cpins.begin(), cpins.end()), cpins.end());
    if (cpins.size() == 1) {
      folded[cpins[0]] += h.net_weight(n);
      continue;
    }
    auto& bucket = merged[reference_hash_pins(cpins)];
    bool found = false;
    for (auto& [pins, weight] : bucket) {
      if (pins == cpins) {
        weight += h.net_weight(n);
        found = true;
        break;
      }
    }
    if (!found) bucket.emplace_back(cpins, h.net_weight(n));
  }
  HypergraphBuilder b2;
  for (VertexId c = 0; c < nc; ++c) b2.add_vertex(cluster_weight[c], folded[c]);
  for (auto& [hash, bucket] : merged)
    for (auto& [pins, weight] : bucket) b2.add_net(weight, pins);
  CoarseLevel level;
  level.coarse = b2.build();
  level.fine_to_coarse = std::move(cluster);
  return level;
}

// ---------------------------------------------------------------------------
// Inputs.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

struct Shape {
  std::string name;
  std::size_t nv = 60;
  std::size_t nn = 120;
  std::size_t min_net = 2;
  std::size_t max_net = 6;
  // Unit vertex weights and small integer net weights: many exact gain
  // ties, zero gains included.
  bool integer_weights = false;
  // Share of vertices made heavy (as coarse clusters are), and by how much.
  double heavy_share = 0.0;
  double heavy_factor = 1.0;
};

std::vector<Shape> shapes() {
  std::vector<Shape> out;
  out.push_back({"fractional", 60, 120, 2, 6, false, 0.0, 1.0});
  out.push_back({"ties", 60, 120, 2, 6, true, 0.0, 1.0});
  out.push_back({"size2-3", 80, 200, 2, 3, false, 0.0, 1.0});
  out.push_back({"size2-3-ties", 80, 200, 2, 3, true, 0.0, 1.0});
  out.push_back({"heavy", 50, 150, 2, 8, false, 0.15, 12.0});
  out.push_back({"heavy-ties", 50, 150, 2, 5, true, 0.2, 6.0});
  out.push_back({"dense", 24, 90, 3, 12, false, 0.0, 1.0});
  return out;
}

Hypergraph make_hg(const Shape& s, std::uint64_t seed) {
  Rng rng(seed);
  HypergraphBuilder b;
  for (std::size_t i = 0; i < s.nv; ++i) {
    double w = s.integer_weights ? 1.0 : 0.25 + rng.uniform_double();
    if (rng.bernoulli(s.heavy_share)) w *= s.heavy_factor;
    b.add_vertex(w);
  }
  for (std::size_t n = 0; n < s.nn; ++n) {
    std::vector<VertexId> pins;
    const std::size_t size =
        s.min_net + rng.uniform(s.max_net - s.min_net + 1);
    while (pins.size() < size) {
      const auto v = static_cast<VertexId>(rng.uniform(s.nv));
      if (std::find(pins.begin(), pins.end(), v) == pins.end())
        pins.push_back(v);
    }
    const double w = s.integer_weights
                         ? static_cast<double>(1 + rng.uniform(3))
                         : 0.1 + rng.uniform_double() * 3.0;
    b.add_net(w, pins);
  }
  return b.build();
}

// Runs fm_refine and the reference from the same start and rng state and
// requires the same sides, the same cut bits and the same rng position.
void expect_fm_matches(const Hypergraph& h, const std::vector<int>& start,
                       double ratio0, double epsilon, std::uint64_t seed,
                       const std::string& where) {
  const BisectionConstraint c =
      make_constraint(h.total_vertex_weight(), ratio0, epsilon);
  std::vector<int> side = start;
  std::vector<int> ref_side = start;
  Rng rng(seed);
  Rng ref_rng(seed);
  const double cut = fm_refine(h, side, c, rng, 6);
  const double ref_cut = reference_fm_refine(h, ref_side, c, ref_rng, 6);
  ASSERT_EQ(side, ref_side) << where;
  ASSERT_EQ(bits(cut), bits(ref_cut)) << where;
  ASSERT_EQ(rng(), ref_rng()) << where;
}

std::vector<int> random_sides(std::size_t nv, double p0, Rng& rng) {
  std::vector<int> side(nv);
  for (int& s : side) s = rng.bernoulli(p0) ? 0 : 1;
  return side;
}

// ---------------------------------------------------------------------------

TEST(FmRefine, CriticalNetUpdatesMatchFullRecompute) {
  const std::pair<double, double> balances[] = {
      {0.5, 0.10}, {0.5, 0.01}, {0.3, 0.05}, {0.75, 0.02}, {0.4, 0.0}};
  for (const Shape& shape : shapes())
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const Hypergraph h = make_hg(shape, seed * 7919);
      Rng start_rng(seed);
      for (const auto& [ratio0, epsilon] : balances) {
        // A start near the target and a badly unbalanced one, so moves out
        // of an over-full side are exercised too.
        const std::vector<int> near = random_sides(h.num_vertices(), ratio0,
                                                   start_rng);
        const std::vector<int> skewed =
            random_sides(h.num_vertices(), 0.9, start_rng);
        const std::string where = shape.name + " seed " +
                                  std::to_string(seed) + " ratio " +
                                  std::to_string(ratio0) + " eps " +
                                  std::to_string(epsilon);
        expect_fm_matches(h, near, ratio0, epsilon, seed * 31, where);
        expect_fm_matches(h, skewed, ratio0, epsilon, seed * 37,
                          where + " skewed");
      }
    }
}

TEST(FmRefine, SideHeapsPickTheSingleHeapVertex) {
  // Heavy coarse vertices under tight balance: most candidates are blocked,
  // so the pick runs through set-aside entries and closed sides. Refine on
  // real coarse levels, as the multilevel bisection does.
  for (const Shape& shape : shapes())
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const Hypergraph fine = make_hg(shape, seed * 104729);
      Rng rng(seed);
      const CoarseLevel level =
          coarsen_once(fine, rng, fine.total_vertex_weight() / 6.0);
      const Hypergraph& h = level.coarse;
      for (double epsilon : {0.0, 0.03, 0.2}) {
        const std::vector<int> start = random_sides(h.num_vertices(), 0.5, rng);
        expect_fm_matches(h, start, 0.5, epsilon, seed * 41,
                          shape.name + " coarse seed " +
                              std::to_string(seed) + " eps " +
                              std::to_string(epsilon));
      }
    }
}

void expect_same_hypergraph(const Hypergraph& a, const Hypergraph& b,
                            const std::string& where) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << where;
  ASSERT_EQ(a.num_nets(), b.num_nets()) << where;
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(bits(a.vertex_weight(v)), bits(b.vertex_weight(v))) << where;
    ASSERT_EQ(bits(a.folded_net_weight(v)), bits(b.folded_net_weight(v)))
        << where;
  }
  for (NetId n = 0; n < a.num_nets(); ++n) {
    ASSERT_EQ(bits(a.net_weight(n)), bits(b.net_weight(n)))
        << where << " net " << n;
    ASSERT_TRUE(std::equal(a.pins_begin(n), a.pins_end(n), b.pins_begin(n),
                           b.pins_end(n)))
        << where << " net " << n;
  }
}

TEST(Coarsen, FlatMergeMatchesReference) {
  // Small vertex sets and many nets give many coarse nets with identical
  // pin sets, so the merge path runs often; the coarsening pyramid is
  // followed down to its last level.
  for (const Shape& shape : shapes())
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Hypergraph h = make_hg(shape, seed * 15485863);
      for (int depth = 0; depth < 6 && h.num_vertices() > 4; ++depth) {
        const double cap = h.total_vertex_weight() / 3.0;
        Rng rng(seed * 100 + static_cast<std::uint64_t>(depth));
        Rng ref_rng = rng;
        CoarseLevel level = coarsen_once(h, rng, cap);
        const CoarseLevel ref = reference_coarsen_once(h, ref_rng, cap);
        const std::string where = shape.name + " seed " +
                                  std::to_string(seed) + " depth " +
                                  std::to_string(depth);
        ASSERT_EQ(level.fine_to_coarse, ref.fine_to_coarse) << where;
        expect_same_hypergraph(level.coarse, ref.coarse, where);
        if (level.coarse.num_vertices() == h.num_vertices()) break;
        h = std::move(level.coarse);
      }
    }
}

}  // namespace
}  // namespace bsio::hg
