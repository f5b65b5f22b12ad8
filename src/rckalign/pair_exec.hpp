// Internal: the one farm program behind every rckalign driver.
//
// run_farm() is the master / standby / slave program. run_pairs(),
// run_rckalign() and run_multi_method() (and through them one-vs-all,
// rck::run, rck::run_query and the service) are spec builders over it: they
// describe their comparisons as PairSpecs over a structure table plus a
// slave-group layout. The blocked and hierarchical drivers keep their own
// master loops (block wavefront; two-level farm) but share its job
// builder, slave role and replay table, so every TM-align job any driver
// farms is replayed from a PairCache. Not part of the public API (lives next
// to the sources, not under include/).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "rck/rcce/rcce.hpp"
#include "rck/rckalign/app.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckalign/pairs.hpp"
#include "rck/rckskel/skeletons.hpp"

namespace rck::rckalign::detail {

/// Pointers to every chain of `dataset`, as a structure table.
std::vector<const bio::Protein*> structure_table(const std::vector<bio::Protein>& dataset);

/// One spec per unordered pair (i < j) of `n` structures, in all_pairs(n)
/// order.
std::vector<PairSpec> all_pair_specs(std::size_t n, Method method);

/// The table slaves replay TM-align jobs from: `cache` when the caller
/// supplied one (it must index the same structure table), else `ahead`,
/// filled with every TM-align spec's ordered (a, b) on `host_threads` host
/// threads before the simulation starts (compute-ahead).
const PairCache& replay_table(std::span<const bio::Protein* const> structures,
                              std::span<const PairSpec> specs,
                              const PairCache* cache, int host_threads,
                              PairCache& ahead);

/// One farm job per spec, with ids id_base + k. Payloads use `wires` where
/// it has both structures' bytes. The LPT/lease cost hint is exact from the
/// replay `table` for TM-align specs and the L1 * L2 size proxy for the
/// methods it does not hold.
std::vector<rckskel::Job> build_jobs(std::span<const bio::Protein* const> structures,
                                     std::span<const PairSpec> specs,
                                     std::span<const bio::Bytes* const> wires,
                                     const PairCache& table,
                                     const scc::CoreTimingModel& model,
                                     std::uint64_t id_base = 0);

/// Decode one collected result into its row (`spec` is the job id).
PairsRow decode_row(rckskel::JobResult& jr);

/// The all-vs-all row shape of a pair-set row.
PairRow to_row(const PairsRow& r);

/// Slave role: serve pair jobs from `master` until TERMINATE, replaying
/// TM-align outcomes from `table` and charging their exact cycles. With
/// `ft` the slave runs the fault-tolerant protocol; otherwise the plain one.
void serve_pairs(rcce::Comm& comm, int master, const PairCache& table,
                 const rckskel::FaultTolerantFarmOptions* ft = nullptr);

/// Slave-group layout entry: the next `slaves` ranks serve the next `specs`
/// specs (the rckskel per-subtask UE restriction).
struct SlaveGroup {
  int slaves = 1;
  std::size_t specs = 0;
};

/// The farm program: validate, pick the replay table (`cache`, else a
/// compute-ahead build), build one job per spec, run master (+ standby) and
/// slaves, and fill every PairsRun field. An empty `groups` lets every slave
/// serve every spec; otherwise the groups must cover opts.slave_count ranks
/// and every spec, in order. `who` prefixes error messages.
PairsRun run_farm(std::span<const bio::Protein* const> structures,
                  std::span<const PairSpec> specs, const PairsOptions& opts,
                  std::span<const bio::Bytes* const> wires, const PairCache* cache,
                  std::span<const SlaveGroup> groups, std::string_view who);

}  // namespace rck::rckalign::detail
