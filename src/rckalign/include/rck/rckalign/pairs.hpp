// Generic pair-set execution: the one farm program under every query shape.
//
// Every rckalign driver is a list of (a, b, method) comparisons over a
// structure table, dispatched to slaves through one FARM skeleton:
// run_rckalign() farms the all-vs-all pair list, run_multi_method() one
// all-vs-all per method group, rck::run_query() one query's rows, and the
// alignment service (src/service) whatever mix of pair / one-vs-all /
// k-vs-all queries a round coalesced. run_pairs() is that program: callers
// describe the comparisons as PairSpec indices into a structure table and
// get back one row per spec, with the full farm/fault-tolerance option
// surface.
//
// The structure table is spans of pointers (not values) so a long-running
// caller can keep its database resident and append transient probes without
// copying; the optional `wires` table carries per-structure pre-serialized
// bytes (bio::serialize output) so job encoding skips re-serialization —
// payload bytes, and therefore the simulated run, are identical either way.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/noc/network.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckskel/skeletons.hpp"
#include "rck/scc/runtime.hpp"

namespace rck::rckalign {

/// One requested comparison: chain `a` is aligned onto chain `b` (TM-align
/// is asymmetric; tm_norm_a in the row is normalized by `a`'s length).
/// Indices address the structure table passed to run_pairs(). Duplicate
/// specs are allowed — rows map back through their spec index.
struct PairSpec {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  Method method = Method::TmAlign;

  bool operator==(const PairSpec&) const = default;
};

/// Farm configuration for a pair-set run. There is no cache field:
/// run_pairs() always computes its TM-align specs ahead on
/// runtime.host.threads host threads and replays them (RckAlignOptions adds
/// a caller-supplied table). Prefer deriving this from a validated
/// rck::RunConfig via RunConfig::to_pairs_options().
struct PairsOptions {
  /// Number of slave cores (the paper sweeps 1..47); rank 0 is the master.
  int slave_count = 47;
  /// Chip / network / core-model configuration for the simulation.
  scc::RuntimeConfig runtime{};
  /// LPT (longest-first) job ordering; the paper used FIFO.
  bool lpt = false;
  /// Use the fault-tolerant farm (leases, retry, blacklist) instead of the
  /// paper's plain FARM. Required whenever runtime.faults is non-empty, and
  /// harmless without faults (simulated makespan is within lease-bookkeeping
  /// noise of the plain farm).
  bool fault_tolerant = false;
  /// Resilience knobs for the fault-tolerant farm (leases, retries,
  /// timeouts); base.lpt_order is overridden by `lpt` above.
  rckskel::FaultTolerantFarmOptions ft{};
  /// Survive the master too: run the checkpointed farm master (periodic
  /// snapshots + heartbeats replicated to a standby) with the standby on
  /// rank slave_count + 1. Implies fault_tolerant; requires
  /// slave_count + 2 cores on the chip. The final rows are byte-identical
  /// to the fault-free run even when the master crashes mid-farm.
  bool master_ft = false;
  /// Checkpoint cadence and heartbeat knobs for master_ft. The embedded
  /// mft.ft is overwritten by `ft` above (with standby_ue auto-derived as
  /// slave_count + 1), so only the master-ft-specific fields matter here.
  rckskel::MasterFtOptions mft{};
};

/// One completed comparison. `spec` is the index of the PairSpec that
/// requested it (stable across duplicates); rows arrive in collection
/// order, which is deterministic for a given configuration.
struct PairsRow {
  std::uint64_t spec = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  Method method = Method::TmAlign;
  double tm_norm_a = 0.0;
  double tm_norm_b = 0.0;
  double rmsd = 0.0;
  double seq_identity = 0.0;
  std::uint32_t aligned_length = 0;
  std::uint64_t work_cycles = 0;  ///< compute cycles the slave charged
  int worker = -1;                ///< slave rank that produced it

  bool operator==(const PairsRow&) const = default;
};

/// Outcome of one pair-set execution.
struct PairsRun {
  noc::SimTime makespan = 0;
  std::vector<PairsRow> rows;  ///< one per spec, in collection order
  std::vector<scc::CoreReport> core_reports;
  noc::NetworkStats network;
  std::uint64_t events = 0;
  /// Activity trace and link-utilization heatmap (populated when
  /// opts.runtime.enable_trace is set or obs is active).
  std::vector<scc::TraceEvent> trace;
  std::string link_heatmap;
  rckskel::FarmReport farm_report{};  ///< populated under the FT farms
  /// Observability recorder (null unless opts.runtime.obs is active).
  std::shared_ptr<obs::Recorder> obs;
  /// Race checker (null unless opts.runtime.chk is active).
  std::shared_ptr<chk::Checker> chk;
};

/// Execute every spec over the structure table on the simulated SCC. The
/// TM-align specs' outcomes are first computed on runtime.host.threads host
/// threads (a PairCache over the ordered (a, b) keys); the simulation then
/// replays them, so the thread count changes wall-clock time only.
///
/// `structures` entries must be non-null and outlive the call. `wires`,
/// when non-empty, must parallel `structures`; a non-null wires[k] is the
/// bio::serialize() bytes of *structures[k] and is used verbatim when
/// encoding job payloads (null entries fall back to serializing on the
/// spot). Throws AlignError on out-of-range spec indices, a null structure
/// referenced by a spec, a bad slave count, or a mismatched wires
/// table.
PairsRun run_pairs(std::span<const bio::Protein* const> structures,
                   std::span<const PairSpec> specs, const PairsOptions& opts,
                   std::span<const bio::Bytes* const> wires = {});

}  // namespace rck::rckalign
