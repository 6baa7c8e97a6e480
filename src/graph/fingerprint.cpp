#include "graph/fingerprint.h"

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

namespace predtop::graph {

namespace {

/// splitmix64 finalizer — full avalanche, so commutative sums of mixed
/// values still separate inputs well.
constexpr std::uint64_t Mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t Combine(std::uint64_t h, std::uint64_t v) noexcept {
  return Mix(h ^ Mix(v));
}

std::uint64_t FloatBits(float f) noexcept {
  // +0.0f and -0.0f compare equal but differ in bits; canonicalize so equal
  // feature matrices always fingerprint equally.
  if (f == 0.0f) f = 0.0f;
  return std::bit_cast<std::uint32_t>(f);
}

/// Two WL refinement rounds over the directed edges src[e] -> dst[e], then a
/// commutative reduction over nodes and over refined edge endpoint pairs. In
/// a round each node's hash absorbs the (commutative) sums of its in- and
/// out-neighbor hashes, kept separate so direction matters. Every sum is over
/// a multiset, so the value does not depend on node or edge order.
std::uint64_t FinishFingerprint(std::vector<std::uint64_t> node_hash,
                                std::span<const std::int32_t> src,
                                std::span<const std::int32_t> dst) {
  const std::size_t n = node_hash.size();
  std::vector<std::uint64_t> mixed(n);
  std::vector<std::uint64_t> in_sum(n);
  std::vector<std::uint64_t> out_sum(n);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < n; ++i) mixed[i] = Mix(node_hash[i]);
    std::fill(in_sum.begin(), in_sum.end(), 0);
    std::fill(out_sum.begin(), out_sum.end(), 0);
    for (std::size_t e = 0; e < src.size(); ++e) {
      const auto u = static_cast<std::size_t>(src[e]);
      const auto v = static_cast<std::size_t>(dst[e]);
      in_sum[v] += mixed[u];
      out_sum[u] += mixed[v];
    }
    for (std::size_t i = 0; i < n; ++i) {
      node_hash[i] = Combine(Combine(node_hash[i], in_sum[i]), Mix(out_sum[i]) ^ 0x5bd1e995ULL);
    }
  }
  std::uint64_t node_sum = 0;
  for (const std::uint64_t h : node_hash) node_sum += Mix(h);
  std::uint64_t edge_sum = 0;
  for (std::size_t e = 0; e < src.size(); ++e) {
    edge_sum += Mix(node_hash[static_cast<std::size_t>(src[e])] ^
                    std::rotl(node_hash[static_cast<std::size_t>(dst[e])], 17));
  }
  std::uint64_t fp = Combine(0x70726564746f70ULL, static_cast<std::uint64_t>(n));
  fp = Combine(fp, static_cast<std::uint64_t>(src.size()));
  fp = Combine(fp, node_sum);
  fp = Combine(fp, edge_sum);
  return fp;
}

}  // namespace

std::uint64_t DagFingerprint(const OpDag& dag) {
  const auto n = static_cast<std::size_t>(dag.NumNodes());
  std::vector<std::uint64_t> node_hash(n);
  std::vector<std::int32_t> src;
  std::vector<std::int32_t> dst;
  src.reserve(static_cast<std::size_t>(dag.NumEdges()));
  dst.reserve(static_cast<std::size_t>(dag.NumEdges()));
  for (std::size_t i = 0; i < n; ++i) {
    const DagNode& node = dag.Node(static_cast<std::int32_t>(i));
    std::uint64_t h = Combine(0x6461676eULL, static_cast<std::uint64_t>(node.kind));
    h = Combine(h, static_cast<std::uint64_t>(node.op_type));
    h = Combine(h, static_cast<std::uint64_t>(node.dtype));
    for (const std::int64_t d : node.out_dims) h = Combine(h, static_cast<std::uint64_t>(d));
    node_hash[i] = h;
    for (const std::int32_t v : dag.Successors(static_cast<std::int32_t>(i))) {
      src.push_back(static_cast<std::int32_t>(i));
      dst.push_back(v);
    }
  }
  return FinishFingerprint(std::move(node_hash), src, dst);
}

std::uint64_t EncodedGraphFingerprint(const EncodedGraph& g) {
  // EncodeGraph caches the fingerprint at construction; recompute only for
  // hand-assembled graphs. (0 marks "unset" — a genuine zero hash would just
  // be recomputed, costing time, not correctness.)
  if (g.fingerprint != 0) return g.fingerprint;
  const auto n = static_cast<std::size_t>(g.num_nodes);
  std::vector<std::uint64_t> node_hash(n);
  const std::int64_t width = n > 0 ? g.features.dim(1) : 0;
  const auto features = g.features.data();
  for (std::size_t i = 0; i < n; ++i) {
    node_hash[i] = Combine(0x656e63ULL,
                           i < g.depths.size() ? static_cast<std::uint64_t>(g.depths[i]) : 0ULL);
  }
  // Column by column: each node still absorbs its row in column order, but
  // the nodes' independent Combine chains interleave instead of running one
  // latency-bound chain per row.
  for (std::int64_t c = 0; c < width; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      node_hash[i] = Combine(node_hash[i], FloatBits(features[static_cast<std::size_t>(
                                               static_cast<std::int64_t>(i) * width + c)]));
    }
  }
  // The GAT edge list (bidirectional + self-loops) is a deterministic
  // function of the DAG's edges, so it carries the full structure.
  return FinishFingerprint(std::move(node_hash), g.edge_src, g.edge_dst);
}

}  // namespace predtop::graph
