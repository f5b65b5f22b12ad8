// Pair outcome table: TM-align outcomes computed ahead of the simulation.
//
// The paper sweeps the slave-core count from 1 to 47 over the *same* job
// set: every sweep point redistributes identical pairwise comparisons. The
// comparisons themselves are deterministic, so we compute each pair once —
// real TM-align runs, producing real TM-scores and exact work counters —
// and let the simulator replay the recorded cost at every sweep point.
//
// One table type serves every caller. Entries are keyed by the exact ordered
// comparison (a, b) — structure `a` aligned onto structure `b` — over a
// structure table: the all-vs-all build stores every (i, j), i < j, of a
// dataset; run_rckalign() and run_pairs() build one for their own jobs as a
// compute-ahead pre-pass whenever the caller supplied none. Building uses
// host threads; entries are stored by key, so host scheduling cannot affect
// any simulated outcome.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/core/stats.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/scc/timing.hpp"

namespace rck::rckalign {

/// Outcome + cost of one ordered comparison (a onto b).
struct PairEntry {
  double tm_norm_a = 0.0;
  double tm_norm_b = 0.0;
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;
  core::AlignStats stats;          ///< exact work counters of the alignment
  std::uint64_t footprint_bytes = 0;  ///< working-set estimate for the cache model

  bool operator==(const PairEntry&) const = default;
};

class PairCache {
 public:
  /// One ordered comparison: structure `first` aligned onto `second`.
  using Key = std::pair<std::uint32_t, std::uint32_t>;

  /// Run TM-align on every unordered pair (i, j), i < j, of `dataset`.
  /// `host_threads` <= 0 means one per online host CPU.
  static PairCache build(const std::vector<bio::Protein>& dataset, int host_threads = 0,
                         const core::TmAlignOptions& opts = {});

  /// Run TM-align(*structures[a], *structures[b]) for every key (a, b) in
  /// `keys` (duplicates collapse) on `host_threads` host threads, the
  /// calling thread among them. Throws AlignError on a key outside the table
  /// or naming a null structure; rethrows the first alignment error.
  static PairCache build(std::span<const bio::Protein* const> structures,
                         std::vector<Key> keys, int host_threads = 0,
                         const core::TmAlignOptions& opts = {});

  /// Size of the structure table the entries index into.
  std::size_t chain_count() const noexcept { return n_; }
  std::size_t pair_count() const noexcept { return entries_.size(); }

  /// Entry for the ordered comparison (a, b). When only (b, a) was computed
  /// — the all-vs-all build stores i < j — that entry is returned, which
  /// makes all-vs-all lookups order-insensitive. Throws AlignError when
  /// neither is in the table.
  const PairEntry& at(std::uint32_t a, std::uint32_t b) const;

  /// Sum of compute cycles over all entries under a timing model — the
  /// serial compute cost on that processor.
  std::uint64_t total_cycles(const scc::CoreTimingModel& model) const;

  /// Cycles for one pair under a timing model.
  std::uint64_t pair_cycles(std::uint32_t i, std::uint32_t j,
                            const scc::CoreTimingModel& model) const;

  bool operator==(const PairCache&) const = default;

 private:
  const PairEntry* find(std::uint32_t a, std::uint32_t b) const noexcept;

  std::size_t n_ = 0;
  std::vector<Key> keys_;            ///< sorted, unique
  std::vector<PairEntry> entries_;  ///< parallel to keys_
};

}  // namespace rck::rckalign
