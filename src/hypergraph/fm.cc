#include "hypergraph/fm.h"

#include <algorithm>
#include <limits>

#include "hypergraph/metrics.h"
#include "util/ws_runtime.h"

namespace bsio::hg {

BisectionConstraint make_constraint(double total_weight, double ratio0,
                                    double epsilon) {
  BisectionConstraint c;
  c.target0 = total_weight * ratio0;
  c.target1 = total_weight - c.target0;
  c.max0 = c.target0 * (1.0 + epsilon);
  c.max1 = c.target1 * (1.0 + epsilon);
  return c;
}

namespace {

struct HeapEntry {
  double gain;
  double tie;  // random tiebreak, fixed per vertex per pass
  VertexId v;
  bool operator<(const HeapEntry& o) const {
    if (gain != o.gain) return gain < o.gain;
    return tie < o.tie;
  }
};

// One object per fm_refine call; run() is one pass and reuses the buffers.
class FmPass {
 public:
  FmPass(const Hypergraph& h, std::vector<int>& side,
         const BisectionConstraint& c, Rng& rng)
      : h_(h), side_(side), c_(c), rng_(rng) {}

  // Returns total gain realised (>= 0; 0 if the pass found no improvement).
  double run() {
    init();
    const std::size_t nv = h_.num_vertices();
    double cum_gain = 0.0;
    double best_gain = 0.0;
    std::size_t best_len = 0;
    moved_.clear();

    while (moved_.size() < nv) {
      VertexId v = pop_best_movable();
      if (v == kNone) break;
      cum_gain += gain_[v];
      apply_move(v);
      locked_[v] = true;
      moved_.push_back(v);
      if (cum_gain > best_gain + 1e-12 ||
          (cum_gain > best_gain - 1e-12 && better_balance())) {
        best_gain = cum_gain;
        best_len = moved_.size();
      }
    }

    // Roll back to the best prefix.
    for (std::size_t i = moved_.size(); i > best_len; --i)
      apply_move(moved_[i - 1], /*update_gains=*/false);
    return best_gain;
  }

 private:
  static constexpr VertexId kNone = static_cast<VertexId>(-1);

  void init() {
    const std::size_t nv = h_.num_vertices();
    const std::size_t nn = h_.num_nets();
    pc_.assign(nn * 2, 0);
    for (NetId n = 0; n < nn; ++n)
      for (VertexId v : h_.pins(n)) ++pc_[n * 2 + side_[v]];
    weight_[0] = weight_[1] = 0.0;
    min_weight_[0] = min_weight_[1] = std::numeric_limits<double>::infinity();
    for (VertexId v = 0; v < nv; ++v) {
      const double w = h_.vertex_weight(v);
      weight_[side_[v]] += w;
      min_weight_[side_[v]] = std::min(min_weight_[side_[v]], w);
    }
    locked_.assign(nv, 0);
    gain_.resize(nv);
    tie_.resize(nv);
    heap_[0].clear();
    heap_[1].clear();
    prev_best_dev_ = std::numeric_limits<double>::infinity();
    // Initial gains are pure functions of the (frozen) pin counts, so the
    // per-vertex computation fans out on the planners' runtime; the rng
    // draws stay sequential in vertex order, keeping every pass
    // bit-identical at any thread count. When this pass already runs
    // inside a parallel recursive-bisection branch, its loop nests: the
    // branch's thread opens it on the runtime and helps run it.
    WsRuntime::global().parallel_for_each(
        nv, [this](std::size_t v) {
          gain_[v] = compute_gain(static_cast<VertexId>(v));
        });
    for (VertexId v = 0; v < nv; ++v) {
      tie_[v] = rng_.uniform_double();
      heap_[side_[v]].push_back({gain_[v], tie_[v], v});
    }
    for (auto& heap : heap_) std::make_heap(heap.begin(), heap.end());
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

  // Whether a vertex of weight wv may leave side s. Monotone in wv: if the
  // lightest vertex may not leave a side, no vertex on it may.
  bool move_allowed(int s, double wv) const {
    const double dst_max = s == 0 ? c_.max1 : c_.max0;
    const double dst_w = weight_[1 - s];
    if (dst_w + wv <= dst_max) return true;
    // Allow balance-restoring moves out of an over-full side.
    const double src_max = s == 0 ? c_.max0 : c_.max1;
    return weight_[s] > src_max && dst_w + wv < weight_[s];
  }

  void push(int s, const HeapEntry& e) {
    heap_[s].push_back(e);
    std::push_heap(heap_[s].begin(), heap_[s].end());
  }

  HeapEntry pop(int s) {
    std::pop_heap(heap_[s].begin(), heap_[s].end());
    HeapEntry e = heap_[s].back();
    heap_[s].pop_back();
    return e;
  }

  // The unlocked movable vertex of highest (gain, tie). Each side's heap
  // holds its own vertices and entries are lazy: locked or stale (gain
  // changed) ones are dropped, blocked ones set aside and re-inserted. The
  // two heaps are searched as one, best top first, except that a side whose
  // lightest vertex at the start of the pass may not move is skipped whole,
  // so its blocked entries stay put.
  VertexId pop_best_movable() {
    const bool open[2] = {move_allowed(0, min_weight_[0]),
                          move_allowed(1, min_weight_[1])};
    VertexId found = kNone;
    for (;;) {
      const bool has0 = open[0] && !heap_[0].empty();
      const bool has1 = open[1] && !heap_[1].empty();
      if (!has0 && !has1) break;
      const int s =
          !has1 || (has0 && heap_[1].front() < heap_[0].front()) ? 0 : 1;
      const HeapEntry e = pop(s);
      if (locked_[e.v] || e.gain != gain_[e.v]) continue;
      if (!move_allowed(s, h_.vertex_weight(e.v))) {
        skipped_.push_back(e);
        continue;
      }
      found = e.v;
      break;
    }
    for (const HeapEntry& e : skipped_) push(side_[e.v], e);
    skipped_.clear();
    return found;
  }

  void apply_move(VertexId v, bool update_gains = true) {
    const int s = side_[v];
    side_[v] = 1 - s;
    weight_[s] -= h_.vertex_weight(v);
    weight_[1 - s] += h_.vertex_weight(v);
    for (NetId n : h_.nets(v)) {
      const int from = pc_[n * 2 + s]--;
      const int to = pc_[n * 2 + (1 - s)]++;
      if (!update_gains) continue;
      // Critical nets only, and on them only the pins whose terms for n
      // change (the rule in fm.h); every other pin keeps its gain bits.
      const bool src_changes = from == 2 || to == 0;
      const bool dst_changes = from == 1 || to == 1;
      if (!src_changes && !dst_changes) continue;
      for (VertexId u : h_.pins(n)) {
        if (u == v || locked_[u]) continue;
        if (!(side_[u] == s ? src_changes : dst_changes)) continue;
        double g = compute_gain(u);
        if (g != gain_[u]) {
          gain_[u] = g;
          push(side_[u], {g, tie_[u], u});
        }
      }
    }
    // v is locked afterwards in run(); its own gain is never read again.
  }

  bool better_balance() const {
    // Used only to break exact gain ties: prefer prefixes closer to target.
    return std::abs(weight_[0] - c_.target0) <
           std::abs(prev_best_dev_) - 1e-12
               ? (prev_best_dev_ = std::abs(weight_[0] - c_.target0), true)
               : false;
  }

  const Hypergraph& h_;
  std::vector<int>& side_;
  const BisectionConstraint& c_;
  Rng& rng_;
  std::vector<int> pc_;  // pin counts: pc_[2n + side]
  double weight_[2] = {0.0, 0.0};
  // Lightest vertex on each side when the pass began. Moved vertices are
  // locked, so it bounds every unlocked vertex still on that side.
  double min_weight_[2] = {0.0, 0.0};
  std::vector<char> locked_;
  std::vector<double> gain_;
  std::vector<double> tie_;
  std::vector<HeapEntry> heap_[2];  // max-heaps of the vertices on each side
  std::vector<HeapEntry> skipped_;
  std::vector<VertexId> moved_;
  mutable double prev_best_dev_ = std::numeric_limits<double>::infinity();
};

}  // namespace

double fm_refine(const Hypergraph& h, std::vector<int>& side,
                 const BisectionConstraint& c, Rng& rng, int passes) {
  FmPass pass(h, side, c, rng);
  for (int p = 0; p < passes; ++p) {
    double gain = pass.run();
    if (gain <= 1e-12) break;
  }
  return cut_net_weight(h, side, 2);
}

}  // namespace bsio::hg
