#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/error.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace rck::rckalign {

PairCache PairCache::build(const std::vector<bio::Protein>& dataset, int host_threads,
                           const core::TmAlignOptions& opts) {
  std::vector<const bio::Protein*> table;
  table.reserve(dataset.size());
  for (const bio::Protein& p : dataset) table.push_back(&p);
  const std::size_t n = dataset.size();
  std::vector<Key> keys;
  keys.reserve(n < 2 ? 0 : n * (n - 1) / 2);
  for (std::uint32_t i = 0; i + 1 < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) keys.emplace_back(i, j);
  return build(table, std::move(keys), host_threads, opts);
}

PairCache PairCache::build(std::span<const bio::Protein* const> structures,
                           std::vector<Key> keys, int host_threads,
                           const core::TmAlignOptions& opts) {
  PairCache cache;
  cache.n_ = structures.size();
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (const auto& [a, b] : keys)
    if (a >= structures.size() || b >= structures.size() ||
        structures[a] == nullptr || structures[b] == nullptr)
      throw AlignError("PairCache: key outside the structure table");
  cache.keys_ = std::move(keys);
  const std::size_t pairs = cache.keys_.size();
  cache.entries_.resize(pairs);

  unsigned nthreads = host_threads > 0 ? static_cast<unsigned>(host_threads)
                                       : std::thread::hardware_concurrency();
  nthreads = std::clamp<unsigned>(nthreads, 1,
                                  pairs == 0 ? 1 : static_cast<unsigned>(pairs));

  // Workers claim entries by index; each writes only its own entries, so
  // the table is the same whichever thread computed what.
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_m;
  const auto work = [&] {
    try {
      core::TmAlignWorkspace ws;  // per thread, reused across its pairs
      for (;;) {
        const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= pairs) return;
        const bio::Protein& a = *structures[cache.keys_[k].first];
        const bio::Protein& b = *structures[cache.keys_[k].second];
        const core::TmAlignResult& r = core::tmalign(a, b, ws, opts);
        PairEntry& e = cache.entries_[k];
        e.tm_norm_a = r.tm_norm_a;
        e.tm_norm_b = r.tm_norm_b;
        e.rmsd = r.rmsd;
        e.seq_identity = r.seq_identity;
        e.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
        e.stats = r.stats;
        e.footprint_bytes =
            scc::CoreTimingModel::alignment_footprint(a.size(), b.size());
      }
    } catch (...) {
      std::lock_guard lock(error_m);
      if (!error) error = std::current_exception();
      next.store(pairs, std::memory_order_relaxed);  // stop the others early
    }
  };

  std::vector<std::thread> helpers;
  helpers.reserve(nthreads - 1);
  for (unsigned t = 1; t < nthreads; ++t) helpers.emplace_back(work);
  work();  // the calling thread is worker 0
  for (std::thread& t : helpers) t.join();
  if (error) std::rethrow_exception(error);
  return cache;
}

const PairEntry* PairCache::find(std::uint32_t a, std::uint32_t b) const noexcept {
  const Key key{a, b};
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &entries_[static_cast<std::size_t>(it - keys_.begin())];
}

const PairEntry& PairCache::at(std::uint32_t a, std::uint32_t b) const {
  if (const PairEntry* e = find(a, b)) return *e;
  if (const PairEntry* e = find(b, a)) return *e;
  throw AlignError("PairCache: no entry for pair (" + std::to_string(a) + ", " +
                   std::to_string(b) + ")");
}

std::uint64_t PairCache::total_cycles(const scc::CoreTimingModel& model) const {
  std::uint64_t sum = 0;
  for (const PairEntry& e : entries_) sum += model.cycles(e.stats, e.footprint_bytes);
  return sum;
}

std::uint64_t PairCache::pair_cycles(std::uint32_t i, std::uint32_t j,
                                     const scc::CoreTimingModel& model) const {
  const PairEntry& e = at(i, j);
  return model.cycles(e.stats, e.footprint_bytes);
}

}  // namespace rck::rckalign
