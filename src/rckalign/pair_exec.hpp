// Internal: slave-side execution of one pair-comparison job.
//
// Shared by the flat farm (app.cpp), the MC-PSC / hierarchy extensions
// (extensions.cpp) and the one-vs-all driver (one_vs_all.cpp). Not part of
// the public API (lives next to the sources, not under include/).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "rck/bio/seq_align.hpp"
#include "rck/core/batch.hpp"
#include "rck/core/ce_align.hpp"
#include "rck/core/rmsd_method.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/rcce/rcce.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/rckalign/cost_cache.hpp"
#include "rck/rckskel/job.hpp"

namespace rck::rckalign::detail {

/// Run `job`'s comparison (replaying from `cache` when possible), charge
/// the simulated compute, and return the encoded outcome.
///
/// `tm_ws`, when non-null, is the slave's reusable TM-align workspace:
/// passing one keeps the steady state allocation-free across jobs. Each
/// simulated core owns its own instance, like the per-core memory it
/// models.
inline bio::Bytes execute_pair_job(rcce::Comm& comm, const bio::Bytes& payload,
                                   const PairCache* cache,
                                   core::TmAlignWorkspace* tm_ws = nullptr) {
  PairJobData job = decode_pair_job(payload);
  const scc::CoreTimingModel& model = comm.ctx().timing();

  PairOutcome out;
  out.i = job.i;
  out.j = job.j;
  out.method = job.method;

  std::uint64_t cycles = 0;
  const std::uint64_t footprint =
      scc::CoreTimingModel::alignment_footprint(job.a.size(), job.b.size());
  switch (job.method) {
    case Method::TmAlign: {
      if (cache != nullptr) {
        const PairEntry& e = cache->at(job.i, job.j);
        out.tm_norm_a = e.tm_norm_a;
        out.tm_norm_b = e.tm_norm_b;
        out.rmsd = e.rmsd;
        out.seq_identity = e.seq_identity;
        out.aligned_length = e.aligned_length;
        cycles = model.cycles(e.stats, e.footprint_bytes);
      } else {
        core::TmAlignWorkspace local_ws;
        core::TmAlignWorkspace& w = tm_ws != nullptr ? *tm_ws : local_ws;
        const core::TmAlignResult& r = core::tmalign(job.a, job.b, w);
        out.tm_norm_a = r.tm_norm_a;
        out.tm_norm_b = r.tm_norm_b;
        out.rmsd = r.rmsd;
        out.seq_identity = r.seq_identity;
        out.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
        cycles = model.cycles(r.stats, footprint);
      }
      break;
    }
    case Method::GaplessRmsd: {
      const core::RmsdResult r = core::best_gapless_rmsd(job.a, job.b);
      out.rmsd = r.rmsd;
      out.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
      cycles = model.cycles(r.stats, footprint);
      break;
    }
    case Method::CeAlign: {
      const core::CeResult r = core::ce_align(job.a, job.b);
      // CE reports a TM-score of its path (normalized by min length) for
      // comparability; both normalizations carry the same value.
      out.tm_norm_a = r.tm;
      out.tm_norm_b = r.tm;
      out.rmsd = r.rmsd;
      out.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
      cycles = model.cycles(r.stats, footprint);
      break;
    }
    case Method::SeqNw: {
      const bio::SeqAlignResult r = bio::seq_align(job.a.sequence(), job.b.sequence());
      out.seq_identity = r.identity();
      out.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
      core::AlignStats stats;
      stats.dp_cells = 3 * r.dp_cells;  // Gotoh fills three matrices
      cycles = model.cycles(stats, footprint);
      break;
    }
  }
  out.work_cycles = cycles;
  if (const obs::Handle h = comm.obs(); h) {
    h.add(h.ids().app_pairs);
    // Kernel time in simulated ps, pre-DVFS (the nominal cycle cost). The
    // kernel/communication split reported from metrics uses this against
    // the core's busy time.
    h.add(h.ids().app_kernel_ps,
          static_cast<std::uint64_t>(model.cycles_to_time(cycles)));
  }
  comm.charge_cycles(cycles);
  return encode_outcome(out);
}

/// Batched slave-side execution: run a whole farm grant, packing runs of
/// uncached TM-align jobs across SIMD lanes via kern::align_batch (up to
/// kBatchLanes pairs share one NW dynamic program). Everything observable —
/// outcome payloads, per-job cycle charges, obs counters — is bit-identical
/// to serving the grant job by job through execute_pair_job: align_batch
/// guarantees per-lane results and AlignStats equal to solo tmalign().
/// Cached or non-TM-align jobs fall back to the solo executor (replay and
/// the other methods have no batched kernel), so mixed grants still work.
///
/// `bw` is the slave's reusable batch workspace (the batched counterpart of
/// the tm_ws parameter above); `out` receives one encoded outcome per job,
/// in grant order.
inline void execute_pair_batch(rcce::Comm& comm,
                               std::span<const rckskel::Job> jobs,
                               const PairCache* cache, core::BatchWorkspace& bw,
                               std::vector<bio::Bytes>& out) {
  out.clear();
  const scc::CoreTimingModel& model = comm.ctx().timing();
  const obs::Handle h = comm.obs();
  std::array<PairJobData, core::kern::kBatchLanes> data;
  std::array<core::BatchItem, core::kern::kBatchLanes> items;
  std::size_t base = 0;
  while (base < jobs.size()) {
    data[0] = decode_pair_job(jobs[base].payload);
    if (cache != nullptr || data[0].method != Method::TmAlign) {
      out.push_back(execute_pair_job(comm, jobs[base].payload, cache));
      ++base;
      continue;
    }
    // Lane group: consecutive uncached TM-align jobs, up to kBatchLanes.
    std::size_t n = 1;
    while (base + n < jobs.size() && n < core::kern::kBatchLanes) {
      data[n] = decode_pair_job(jobs[base + n].payload);
      if (data[n].method != Method::TmAlign) break;
      ++n;
    }
    for (std::size_t k = 0; k < n; ++k)
      items[k] = core::BatchItem{&data[k].a, &data[k].b};
    core::kern::align_batch(items.data(), n, bw);
    for (std::size_t k = 0; k < n; ++k) {
      const core::TmAlignResult& r = bw.result(k);
      PairOutcome o;
      o.i = data[k].i;
      o.j = data[k].j;
      o.method = Method::TmAlign;
      o.tm_norm_a = r.tm_norm_a;
      o.tm_norm_b = r.tm_norm_b;
      o.rmsd = r.rmsd;
      o.seq_identity = r.seq_identity;
      o.aligned_length = static_cast<std::uint32_t>(r.aligned_length);
      const std::uint64_t footprint = scc::CoreTimingModel::alignment_footprint(
          data[k].a.size(), data[k].b.size());
      const std::uint64_t cycles = model.cycles(r.stats, footprint);
      o.work_cycles = cycles;
      if (h) {
        h.add(h.ids().app_pairs);
        h.add(h.ids().app_kernel_ps,
              static_cast<std::uint64_t>(model.cycles_to_time(cycles)));
      }
      comm.charge_cycles(cycles);
      out.push_back(encode_outcome(o));
    }
    base += n;
  }
}

}  // namespace rck::rckalign::detail
