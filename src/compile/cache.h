#pragma once
// Global LRU cache of compiled inference programs, keyed by
// (owner instance, shape class). Programs hold raw pointers into their
// owner's modules, so the owner's destructor MUST evict its entries
// (core::StagePredictor does) — otherwise a hot-swapped model would leak its
// programs *and* leave dangling weight pointers behind.
//
// Misses for predictors that cannot be compiled are cached as null markers so
// the builder runs once per shape class, not once per call.

#include <cstdint>
#include <memory>
#include <optional>

#include "compile/program.h"

namespace predtop::compile {

/// Monotonic owner ids for program cache keys (one per StagePredictor).
[[nodiscard]] std::uint64_t NextOwnerId() noexcept;

class ProgramCache {
 public:
  /// Entries kept until SetCapacity changes it.
  static constexpr std::size_t kDefaultCapacity = 128;

  [[nodiscard]] static ProgramCache& Global();

  /// Cached program (possibly a null marker) for the key, bumping recency.
  /// nullopt = never built for this key.
  [[nodiscard]] std::optional<std::shared_ptr<InferProgram>> Lookup(
      std::uint64_t owner, std::int64_t num_nodes, std::int64_t num_edges);

  /// Insert (evicting least-recently-used entries beyond capacity). Null
  /// programs are legal and mark "not compilable for this shape".
  void Insert(std::uint64_t owner, std::int64_t num_nodes, std::int64_t num_edges,
              std::shared_ptr<InferProgram> program);

  /// Drop every entry of one owner (called from ~StagePredictor).
  void EvictOwner(std::uint64_t owner);

  [[nodiscard]] std::size_t Size() const;
  void Clear();
  /// Test hook; the process default is kDefaultCapacity.
  void SetCapacity(std::size_t capacity);

  /// Lifetime Lookup outcomes (hit = key present, even as a null marker;
  /// miss = never built). Monotonic — Clear/EvictOwner don't reset them.
  /// Surfaced through serve::ServiceStats and the cluster StatsBody.
  [[nodiscard]] std::uint64_t Hits() const noexcept;
  [[nodiscard]] std::uint64_t Misses() const noexcept;

 private:
  ProgramCache();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace predtop::compile
