#include "hypergraph/hypergraph.h"

#include <algorithm>

namespace bsio::hg {

double Hypergraph::total_vertex_weight() const {
  double s = 0.0;
  for (double w : vertex_weight_) s += w;
  return s;
}

double Hypergraph::total_net_weight() const {
  double s = 0.0;
  for (double w : net_weight_) s += w;
  return s;
}

double Hypergraph::total_folded_weight() const {
  double s = 0.0;
  for (double w : folded_net_weight_) s += w;
  return s;
}

void Hypergraph::validate() const {
  BSIO_CHECK(xpins_.size() == num_nets() + 1);
  BSIO_CHECK(xnets_.size() == num_vertices() + 1);
  BSIO_CHECK(xpins_.back() == pins_.size());
  BSIO_CHECK(xnets_.back() == nets_.size());
  BSIO_CHECK(pins_.size() == nets_.size());
  for (NetId n = 0; n < num_nets(); ++n) {
    BSIO_CHECK_MSG(net_size(n) >= 2, "built hypergraph must have no tiny nets");
    for (VertexId v : pins(n)) BSIO_CHECK(v < num_vertices());
  }
  for (VertexId v = 0; v < num_vertices(); ++v)
    for (NetId n : nets(v)) BSIO_CHECK(n < num_nets());
}

VertexId HypergraphBuilder::add_vertex(double weight, double folded_weight) {
  vertex_weight_.push_back(weight);
  folded_weight_.push_back(folded_weight);
  return static_cast<VertexId>(vertex_weight_.size() - 1);
}

void HypergraphBuilder::add_net(double weight,
                                const std::vector<VertexId>& pins) {
  const auto first = static_cast<std::ptrdiff_t>(pins_.size());
  pins_.insert(pins_.end(), pins.begin(), pins.end());
  std::sort(pins_.begin() + first, pins_.end());
  pins_.erase(std::unique(pins_.begin() + first, pins_.end()), pins_.end());
  for (auto it = pins_.begin() + first; it != pins_.end(); ++it)
    BSIO_CHECK_MSG(*it < vertex_weight_.size(), "net pin references no vertex");
  const std::size_t size = pins_.size() - static_cast<std::size_t>(first);
  if (size <= 1) {
    if (size == 1) folded_weight_[pins_.back()] += weight;
    pins_.resize(static_cast<std::size_t>(first));
    return;
  }
  net_weight_.push_back(weight);
  xpins_.push_back(pins_.size());
}

Hypergraph HypergraphBuilder::build() {
  Hypergraph h;
  h.vertex_weight_ = std::move(vertex_weight_);
  h.folded_net_weight_ = std::move(folded_weight_);
  h.net_weight_ = std::move(net_weight_);
  h.xpins_ = std::move(xpins_);
  h.pins_ = std::move(pins_);
  xpins_.assign(1, 0);

  // Build the vertex -> nets CSR by counting sort.
  const std::size_t nv = h.vertex_weight_.size();
  std::vector<std::size_t> deg(nv, 0);
  for (VertexId v : h.pins_) ++deg[v];
  h.xnets_.assign(nv + 1, 0);
  for (std::size_t v = 0; v < nv; ++v) h.xnets_[v + 1] = h.xnets_[v] + deg[v];
  h.nets_.resize(h.pins_.size());
  std::vector<std::size_t> cursor(h.xnets_.begin(), h.xnets_.end() - 1);
  for (NetId n = 0; n < h.num_nets(); ++n)
    for (VertexId v : h.pins(n)) h.nets_[cursor[v]++] = n;

  h.validate();
  return h;
}

}  // namespace bsio::hg
