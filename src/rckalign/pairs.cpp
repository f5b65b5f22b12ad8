#include "rck/rckalign/pairs.hpp"

#include <iterator>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "rck/bio/seq_align.hpp"
#include "rck/core/ce_align.hpp"
#include "rck/core/rmsd_method.hpp"
#include "rck/noc/heatmap.hpp"
#include "rck/rckalign/error.hpp"

#include "pair_exec.hpp"

namespace rck::rckalign {

namespace detail {

namespace {

/// Run `payload`'s comparison (TM-align replayed from `table`, the other
/// methods computed here), charge the simulated compute, and return the
/// encoded outcome.
bio::Bytes execute_pair_job(rcce::Comm& comm, const bio::Bytes& payload,
                            const PairCache& table) {
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
      const PairEntry& e = table.at(job.i, job.j);
      out.tm_norm_a = e.tm_norm_a;
      out.tm_norm_b = e.tm_norm_b;
      out.rmsd = e.rmsd;
      out.seq_identity = e.seq_identity;
      out.aligned_length = e.aligned_length;
      cycles = model.cycles(e.stats, e.footprint_bytes);
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

void validate(std::span<const bio::Protein* const> structures,
              std::span<const PairSpec> specs, const PairsOptions& opts,
              std::span<const bio::Bytes* const> wires,
              std::span<const SlaveGroup> groups, const std::string& who) {
  if (!wires.empty() && wires.size() != structures.size())
    throw AlignError(who + ": wires table must parallel structures");
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const PairSpec& s = specs[k];
    if (s.a >= structures.size() || s.b >= structures.size())
      throw AlignError(who + ": spec " + std::to_string(k) +
                       " indexes outside the structure table");
    if (structures[s.a] == nullptr || structures[s.b] == nullptr)
      throw AlignError(who + ": spec " + std::to_string(k) +
                       " references a null structure");
  }
  // master_ft adds a standby core after the last slave.
  const int core_count = opts.slave_count + (opts.master_ft ? 2 : 1);
  if (opts.slave_count < 1 || core_count > opts.runtime.chip.core_count())
    throw AlignError(who + ": slave_count out of range for chip");
  if (groups.empty()) return;
  int slaves = 0;
  std::size_t covered = 0;
  for (const SlaveGroup& g : groups) {
    if (g.slaves < 1) throw AlignError(who + ": empty slave group");
    slaves += g.slaves;
    covered += g.specs;
  }
  if (slaves != opts.slave_count || covered != specs.size())
    throw AlignError(who + ": slave groups must cover every slave and spec");
}

}  // namespace

std::vector<const bio::Protein*> structure_table(const std::vector<bio::Protein>& dataset) {
  std::vector<const bio::Protein*> table;
  table.reserve(dataset.size());
  for (const bio::Protein& p : dataset) table.push_back(&p);
  return table;
}

std::vector<PairSpec> all_pair_specs(std::size_t n, Method method) {
  std::vector<PairSpec> specs;
  specs.reserve(n < 2 ? 0 : n * (n - 1) / 2);
  for (std::uint32_t i = 0; i + 1 < n; ++i)
    for (std::uint32_t j = i + 1; j < n; ++j) specs.push_back(PairSpec{i, j, method});
  return specs;
}

const PairCache& replay_table(std::span<const bio::Protein* const> structures,
                              std::span<const PairSpec> specs,
                              const PairCache* cache, int host_threads,
                              PairCache& ahead) {
  if (cache != nullptr) {
    if (cache->chain_count() != structures.size())
      throw AlignError("PairCache built for a different structure table");
    return *cache;
  }
  std::vector<PairCache::Key> keys;
  keys.reserve(specs.size());
  for (const PairSpec& s : specs)
    if (s.method == Method::TmAlign) keys.emplace_back(s.a, s.b);
  ahead = PairCache::build(structures, std::move(keys), host_threads);
  return ahead;
}

std::vector<rckskel::Job> build_jobs(std::span<const bio::Protein* const> structures,
                                     std::span<const PairSpec> specs,
                                     std::span<const bio::Bytes* const> wires,
                                     const PairCache& table,
                                     const scc::CoreTimingModel& model,
                                     std::uint64_t id_base) {
  std::vector<rckskel::Job> jobs;
  jobs.reserve(specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const PairSpec& s = specs[k];
    const bio::Protein& a = *structures[s.a];
    const bio::Protein& b = *structures[s.b];
    rckskel::Job job;
    job.id = id_base + k;
    // Pre-serialized wires (when the caller cached them) produce the same
    // payload bytes as serializing here, just without the work.
    const bio::Bytes* aw = wires.empty() ? nullptr : wires[s.a];
    const bio::Bytes* bw = wires.empty() ? nullptr : wires[s.b];
    job.payload = aw != nullptr && bw != nullptr
                      ? encode_pair_job(s.a, s.b, s.method, *aw, *bw)
                      : encode_pair_job(s.a, s.b, s.method, a, b);
    job.cost_hint = s.method == Method::TmAlign
                        ? table.pair_cycles(s.a, s.b, model)
                        : static_cast<std::uint64_t>(a.size()) * b.size();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

PairsRow decode_row(rckskel::JobResult& jr) {
  const PairOutcome o = decode_outcome(std::move(jr.payload));
  return PairsRow{jr.id,          o.i,           o.j,
                  o.method,       o.tm_norm_a,   o.tm_norm_b,
                  o.rmsd,         o.seq_identity, o.aligned_length,
                  o.work_cycles,  jr.worker};
}

PairRow to_row(const PairsRow& r) {
  return PairRow{r.a,    r.b,           r.tm_norm_a,      r.tm_norm_b,
                 r.rmsd, r.seq_identity, r.aligned_length, r.worker};
}

void serve_pairs(rcce::Comm& comm, int master, const PairCache& table,
                 const rckskel::FaultTolerantFarmOptions* ft) {
  const rckskel::Worker worker = [&table](rcce::Comm& c, const bio::Bytes& payload) {
    return execute_pair_job(c, payload, table);
  };
  if (ft != nullptr) {
    rckskel::farm_slave_ft(comm, master, worker, *ft);
  } else {
    rckskel::farm_slave(comm, master, worker);
  }
}

PairsRun run_farm(std::span<const bio::Protein* const> structures,
                  std::span<const PairSpec> specs, const PairsOptions& opts,
                  std::span<const bio::Bytes* const> wires, const PairCache* cache,
                  std::span<const SlaveGroup> groups, std::string_view who) {
  validate(structures, specs, opts, wires, groups, std::string(who));

  // Compute-ahead: without a caller table, fill every TM-align spec's
  // outcome, keyed by its exact ordered (a, b), on the configured host
  // threads; the slaves then replay it, charging exactly the cycles an
  // inline alignment would. TM-align cost hints come from the same table,
  // so LPT order and fault-tolerant leases do not depend on whether the
  // caller supplied it.
  PairCache ahead;
  const PairCache& table =
      replay_table(structures, specs, cache, opts.runtime.host.threads, ahead);

  PairsRun run;
  scc::SpmdRuntime rt(opts.runtime);

  constexpr int kMaster = 0;
  const int standby_rank = opts.master_ft ? opts.slave_count + 1 : -1;

  // Role-local collection buffers. The master and the standby each decode
  // into their own vector inside the simulation (so obs spans land on the
  // right core lane); the buffers are merged after rt.run(), preferring the
  // standby's copy whenever a takeover produced one. A crashed master
  // unwinds before writing its buffer, so the merge never sees torn state.
  std::vector<PairsRow> master_rows;
  rckskel::FarmReport master_rep{};
  std::optional<std::vector<PairsRow>> standby_rows;
  rckskel::FarmReport standby_rep{};

  const auto program = [&](scc::CoreCtx& ctx) {
    rcce::Comm comm(ctx);

    // Master and standby both run this: load the whole structure table once
    // from DRAM (the paper's single loader process; the standby pre-loads
    // so takeover needs no disk round-trip), then build one job per spec,
    // FIFO in spec order, restricted per slave group.
    const auto load_and_build = [&]() -> rckskel::Task {
      const obs::Handle h = comm.obs();
      std::uint64_t table_bytes = 0;
      for (const bio::Protein* p : structures)
        if (p != nullptr) table_bytes += p->wire_size();
      const noc::SimTime t_load0 = ctx.now();
      comm.charge_dram_read(table_bytes);
      if (h) {
        h.span(obs::Lane::Core, h.ids().n_load_dataset, t_load0, ctx.now());
      }

      const noc::SimTime t_build0 = ctx.now();
      std::vector<rckskel::Job> jobs =
          build_jobs(structures, specs, wires, table, ctx.timing());
      rckskel::Task task;
      if (groups.empty()) {
        std::vector<int> slaves(static_cast<std::size_t>(opts.slave_count));
        std::iota(slaves.begin(), slaves.end(), 1);
        task = rckskel::Task::make_par(std::move(slaves), std::move(jobs));
      } else {
        std::vector<rckskel::Task> children;
        int next_ue = 1;
        auto next_job = jobs.begin();
        for (const SlaveGroup& g : groups) {
          std::vector<int> ues(static_cast<std::size_t>(g.slaves));
          std::iota(ues.begin(), ues.end(), next_ue);
          next_ue += g.slaves;
          const auto end = next_job + static_cast<std::ptrdiff_t>(g.specs);
          children.push_back(rckskel::Task::make_par(
              std::move(ues), std::vector<rckskel::Job>(std::make_move_iterator(next_job),
                                                        std::make_move_iterator(end))));
          next_job = end;
        }
        task = rckskel::Task::make_group(rckskel::Task::Mode::Par, {},
                                         std::move(children));
      }
      if (h) {
        // Job construction is host-side work (free in simulated time), so
        // this phase span marks the boundary rather than a cost.
        h.span(obs::Lane::Core, h.ids().n_build_jobs, t_build0, ctx.now());
      }
      return task;
    };

    const auto decode_collected = [&](std::vector<rckskel::JobResult>& collected,
                                      std::vector<PairsRow>& rows) {
      const obs::Handle h = comm.obs();
      const noc::SimTime t_decode0 = ctx.now();
      rows.reserve(collected.size());
      for (rckskel::JobResult& jr : collected) rows.push_back(decode_row(jr));
      if (h) {
        h.span(obs::Lane::Core, h.ids().n_decode_results, t_decode0, ctx.now());
        // Aggregate throughput over this core's elapsed time so far (the
        // final makespan differs only by teardown bookkeeping).
        const double secs = noc::to_seconds(ctx.now());
        if (secs > 0.0) {
          h.set_gauge(h.ids().app_pairs_per_sec,
                      static_cast<double>(rows.size()) / secs, ctx.now());
        }
      }
    };

    rckskel::FaultTolerantFarmOptions ftopts = opts.ft;
    ftopts.base.lpt_order = opts.lpt;
    rckskel::MasterFtOptions mft = opts.mft;
    mft.ft = ftopts;
    mft.ft.standby_ue = standby_rank;

    if (comm.ue() == kMaster) {
      const rckskel::Task task = load_and_build();
      std::vector<rckskel::JobResult> collected;
      if (opts.master_ft) {
        collected = rckskel::farm_ft_master(comm, task, mft, &master_rep);
      } else if (opts.fault_tolerant) {
        collected = rckskel::farm_ft(comm, task, ftopts, &master_rep);
      } else {
        rckskel::FarmOptions fopts;
        fopts.lpt_order = opts.lpt;
        collected = rckskel::farm(comm, task, fopts);
      }
      decode_collected(collected, master_rows);
    } else if (comm.ue() == standby_rank) {
      const rckskel::Task task = load_and_build();
      std::optional<std::vector<rckskel::JobResult>> collected =
          rckskel::farm_standby(comm, kMaster, task, mft, &standby_rep);
      if (collected) {
        standby_rows.emplace();
        decode_collected(*collected, *standby_rows);
      }
    } else {
      serve_pairs(comm, kMaster, table,
                  opts.master_ft        ? &mft.ft
                  : opts.fault_tolerant ? &ftopts
                                        : nullptr);
    }
  };

  run.makespan = rt.run(opts.slave_count + (opts.master_ft ? 2 : 1), program);
  if (standby_rows.has_value()) {
    run.rows = std::move(*standby_rows);
    run.farm_report = standby_rep;
  } else {
    run.rows = std::move(master_rows);
    run.farm_report = master_rep;
  }
  run.core_reports = rt.core_reports();
  run.network = rt.network_stats();
  run.events = rt.events_fired();
  run.obs = rt.obs();
  run.chk = rt.chk();
  // obs forces the runtime's internal trace on (to derive per-core lanes),
  // so the trace/heatmap fields follow either switch.
  if (opts.runtime.enable_trace || run.obs != nullptr) {
    run.trace = rt.trace();
    run.link_heatmap = noc::render_link_heatmap(rt.network(), run.makespan);
  }
  return run;
}

}  // namespace detail

PairsRun run_pairs(std::span<const bio::Protein* const> structures,
                   std::span<const PairSpec> specs, const PairsOptions& opts,
                   std::span<const bio::Bytes* const> wires) {
  return detail::run_farm(structures, specs, opts, wires, /*cache=*/nullptr,
                          /*groups=*/{}, "run_pairs");
}

}  // namespace rck::rckalign
