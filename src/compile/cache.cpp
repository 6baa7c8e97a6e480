#include "compile/cache.h"

#include <atomic>
#include <list>
#include <map>
#include <mutex>
#include <tuple>

namespace predtop::compile {

std::uint64_t NextOwnerId() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

struct ProgramCache::Impl {
  using Key = std::tuple<std::uint64_t, std::int64_t, std::int64_t>;
  struct Entry {
    Key key;
    std::shared_ptr<InferProgram> program;
  };

  mutable std::mutex mutex;
  std::list<Entry> lru;  // front = most recent
  std::map<Key, std::list<Entry>::iterator> index;
  std::size_t capacity = kDefaultCapacity;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

ProgramCache::ProgramCache() : impl_(std::make_unique<Impl>()) {}

ProgramCache& ProgramCache::Global() {
  // Deliberately immortal. Owners can be function-local statics (a test
  // fixture's trained predictors, a long-lived service singleton) whose
  // destructors run after this translation unit's exit-time destructors;
  // ~StagePredictor must still find a live cache to EvictOwner from, so the
  // cache is never destroyed. The object stays reachable through this
  // pointer, so LeakSanitizer does not count it.
  static ProgramCache* cache = new ProgramCache;
  return *cache;
}

std::optional<std::shared_ptr<InferProgram>> ProgramCache::Lookup(std::uint64_t owner,
                                                                  std::int64_t num_nodes,
                                                                  std::int64_t num_edges) {
  const Impl::Key key{owner, num_nodes, num_edges};
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->index.find(key);
  if (it == impl_->index.end()) {
    impl_->misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  impl_->hits.fetch_add(1, std::memory_order_relaxed);
  impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
  return it->second->program;
}

void ProgramCache::Insert(std::uint64_t owner, std::int64_t num_nodes,
                          std::int64_t num_edges, std::shared_ptr<InferProgram> program) {
  const Impl::Key key{owner, num_nodes, num_edges};
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->index.find(key);
  if (it != impl_->index.end()) {
    it->second->program = std::move(program);
    impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
    return;
  }
  impl_->lru.push_front({key, std::move(program)});
  impl_->index.emplace(key, impl_->lru.begin());
  while (impl_->index.size() > impl_->capacity) {
    impl_->index.erase(impl_->lru.back().key);
    impl_->lru.pop_back();
  }
}

void ProgramCache::EvictOwner(std::uint64_t owner) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto it = impl_->lru.begin(); it != impl_->lru.end();) {
    if (std::get<0>(it->key) == owner) {
      impl_->index.erase(it->key);
      it = impl_->lru.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t ProgramCache::Size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->index.size();
}

void ProgramCache::Clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->lru.clear();
  impl_->index.clear();
}

std::uint64_t ProgramCache::Hits() const noexcept {
  return impl_->hits.load(std::memory_order_relaxed);
}

std::uint64_t ProgramCache::Misses() const noexcept {
  return impl_->misses.load(std::memory_order_relaxed);
}

void ProgramCache::SetCapacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->capacity = capacity > 0 ? capacity : 1;
  while (impl_->index.size() > impl_->capacity) {
    impl_->index.erase(impl_->lru.back().key);
    impl_->lru.pop_back();
  }
}

}  // namespace predtop::compile
