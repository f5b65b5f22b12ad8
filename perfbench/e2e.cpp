// perfbench_e2e — host-time benchmark of the public entry points.
//
// One process runs one workload (allvsall-rs119, sweep-ck34, service-ck34),
// times it from outside with the host clock, checks every output, and prints
// one JSON object as the last line of stdout:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, pairs_per_s,
// cpu_ms_per_pair, peak_rss_mb). With --trace 1 the same workload runs with
// spans around the benchmark's own calls into each layer's public functions,
// plus a few layer probes, and the metrics are the per-layer ones. Spans live
// in memory and are written out with the run's result file when it ends.
//
// Nothing here changes the library: every number is taken around a call.
// perfbench/NOTES.md records why each workload exists and which end-to-end
// metric each per-layer metric should move.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rck/bio/dataset.hpp"
#include "rck/bio/synthetic.hpp"
#include "rck/core/tmalign.hpp"
#include "rck/obs/metrics.hpp"
#include "rck/rck.hpp"
#include "rck/rckalign/codec.hpp"
#include "rck/service/loadgen.hpp"
#include "rck/service/service.hpp"

namespace {

using namespace rck;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// Process-wide CPU time (all threads, user + sys) and voluntary context
/// switches, from getrusage.
struct Usage {
  double cpu_s = 0.0;
  long nvcsw = 0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return Usage{tv(ru.ru_utime) + tv(ru.ru_stime), ru.ru_nvcsw};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest whole percentile with at least ten samples above it, and the
/// sample at that rank; nullopt with fewer than eleven samples.
std::optional<std::pair<int, double>> tail(std::vector<double> v) {
  const std::size_t n = v.size();
  if (n < 11) return std::nullopt;
  std::sort(v.begin(), v.end());
  const int pct = static_cast<int>(std::floor(100.0 * static_cast<double>(n - 10) /
                                              static_cast<double>(n)));
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(pct) / 100.0 * static_cast<double>(n)));
  return std::make_pair(pct, v[std::min(n - 1, rank == 0 ? 0 : rank - 1)]);
}

double safe_div(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// -- arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int threads = 0;
  bool smoke = false;
  bool corrupt = false;
  std::string out_dir;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench_e2e: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload allvsall-rs119|sweep-ck34|service-ck34 "
               "--seed N --seconds S --trace 0|1 --threads T [--smoke] [--corrupt] "
               "[--out DIR]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int k = 1; k < argc; ++k) {
    const std::string key = argv[k];
    if (key == "--smoke") { a.smoke = true; continue; }
    if (key == "--corrupt") { a.corrupt = true; continue; }
    if (k + 1 >= argc) usage_error("missing value for " + key);
    const std::string val = argv[++k];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") { a.seed = std::stoull(val); have_seed = true; }
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else if (key == "--threads") a.threads = std::stoi(val);
      else if (key == "--out") a.out_dir = val;
      else usage_error("unknown option " + key);
    } catch (const std::logic_error&) {
      usage_error("bad value '" + val + "' for " + key);
    }
  }
  if (a.workload != "allvsall-rs119" && a.workload != "sweep-ck34" &&
      a.workload != "service-ck34")
    usage_error("unknown workload '" + a.workload + "'");
  if (!have_seed) usage_error("--seed is required");
  if (!(a.seconds > 0.0)) usage_error("--seconds must be positive");
  if (a.threads < 1) usage_error("--threads must be at least 1");
  return a;
}

// -- host fingerprint --------------------------------------------------------

struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  int threads = 0;
};

Fingerprint fingerprint(int threads) {
  Fingerprint f;
  f.nproc = std::thread::hardware_concurrency();
  f.threads = threads;
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        f.cpu_model = line.substr(colon + 1);
        f.cpu_model.erase(0, f.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  if (f.cpu_model.empty()) f.cpu_model = "unknown";
  return f;
}

std::string json_string(const std::string& s) {
  std::string out;
  obs::append_json_escaped(out, s);
  return out;
}

std::string fingerprint_json(const Fingerprint& f) {
  return "{\"nproc\": " + std::to_string(f.nproc) +
         ", \"cpu_model\": " + json_string(f.cpu_model) +
         ", \"compiler\": " + json_string(f.compiler) +
         ", \"build_type\": " + json_string(f.build_type) +
         ", \"threads\": " + std::to_string(f.threads) + "}";
}

// -- tracing -----------------------------------------------------------------

/// In-memory span recorder. While `detail` is set every span is recorded:
/// phases (setup, iteration, check, probe) and one span per call into a
/// library layer. Without it only top-level phases are, so a traced run can
/// alternate iterations with and without inner spans and report the
/// difference as the tracing overhead.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  bool on = false;
  bool detail = false;
  std::uint64_t trace_id = 0;

  int open(std::string name) {
    if (!on || (!stack_.empty() && !detail)) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now_s(), 0.0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_s();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

class Scope {
 public:
  explicit Scope(std::string name) : id_(g_tracer.open(std::move(name))) {}
  ~Scope() { g_tracer.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

// -- metrics -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    for (Metric& m : list_)
      if (m.name == name) { m.value = value; m.unit = unit; return; }
    list_.push_back(Metric{name, value, unit});
  }
  /// Median, tail percentile and sample count of a sampled metric.
  void samples(const std::string& name, const std::vector<double>& v,
               const std::string& unit) {
    set(name, median(v), unit);
    const auto t = tail(v);
    set(name + ".tail", t ? t->second : 0.0, unit);
    set(name + ".tail_pct", t ? t->first : 0, "pct");
    set(name + ".n", static_cast<double>(v.size()), "count");
  }
  const std::vector<Metric>& list() const noexcept { return list_; }

  std::string json() const {
    std::string out = "{";
    for (std::size_t k = 0; k < list_.size(); ++k) {
      if (k) out += ", ";
      out += json_string(list_[k].name) + ": {\"value\": ";
      obs::append_json_double(out, list_[k].value);
      out += ", \"unit\": " + json_string(list_[k].unit) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> list_;
};

// -- checks ------------------------------------------------------------------

/// Failed operations against attempted ones. An operation is one pair job
/// of the measured phase; a check that covers a whole run fails every job
/// of that run.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(std::uint64_t jobs, const std::string& what) {
    failed += jobs;
    std::fprintf(stderr, "perfbench_e2e: CHECK FAILED (%llu jobs): %s\n",
                 static_cast<unsigned long long>(jobs), what.c_str());
  }
};

/// FNV-1a over raw bytes of trivially copyable values.
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  template <class T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (unsigned char c : b) h = (h ^ c) * 1099511628211ULL;
  }
};

bool same_outcome(const rckalign::PairRow& r, const rckalign::PairEntry& e) {
  return r.tm_norm_a == e.tm_norm_a && r.tm_norm_b == e.tm_norm_b &&
         r.rmsd == e.rmsd && r.seq_identity == e.seq_identity &&
         r.aligned_length == e.aligned_length;
}

bool same_outcome(const core::TmAlignResult& r, const rckalign::PairEntry& e) {
  return r.tm_norm_a == e.tm_norm_a && r.tm_norm_b == e.tm_norm_b &&
         r.rmsd == e.rmsd && r.seq_identity == e.seq_identity &&
         static_cast<std::uint32_t>(r.aligned_length) == e.aligned_length &&
         r.stats == e.stats;
}

/// Row-by-row check of a cached all-vs-all run against its cache: every
/// unordered pair exactly once, every outcome equal to the cache entry.
/// Returns the number of bad rows (missing pairs count as bad).
std::uint64_t check_rows(const std::vector<rckalign::PairRow>& rows,
                         const rckalign::PairCache& cache) {
  const std::size_t n = cache.chain_count();
  std::vector<char> seen(cache.pair_count(), 0);
  std::uint64_t bad = 0;
  for (const rckalign::PairRow& r : rows) {
    if (r.i >= r.j || r.j >= n) { ++bad; continue; }
    const std::size_t k = static_cast<std::size_t>(r.j) * (r.j - 1) / 2 + r.i;
    if (seen[k]++ || !same_outcome(r, cache.at(r.i, r.j))) ++bad;
  }
  for (char s : seen) bad += s == 0;
  return bad;
}

void add_row(Digest& d, const rckalign::PairRow& r) {
  d.add(r.i);
  d.add(r.j);
  d.add(r.tm_norm_a);
  d.add(r.tm_norm_b);
  d.add(r.rmsd);
  d.add(r.seq_identity);
  d.add(r.aligned_length);
}

/// Digest of the rows sorted by (i, j), worker excluded: the same job set
/// must produce the same digest at every slave count.
std::uint64_t rows_digest(std::vector<rckalign::PairRow> rows) {
  std::sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return std::make_pair(x.i, x.j) < std::make_pair(y.i, y.j);
  });
  Digest d;
  for (const rckalign::PairRow& r : rows) add_row(d, r);
  return d.h;
}

/// Everything simulated about a run: must repeat exactly.
std::uint64_t sim_digest(const RunResult& run) {
  Digest d;
  d.add(run.makespan);
  d.add(run.events);
  d.add(run.network);
  for (const scc::CoreReport& c : run.core_reports) {
    d.add(c.finish);
    d.add(c.busy);
    d.add(c.blocked);
    d.add(c.compute_cycles);
    d.add(c.messages_sent);
    d.add(c.messages_received);
    d.add(c.bytes_sent);
    d.add(c.bytes_received);
    d.add(c.crashed);
    d.add(c.restarts);
  }
  for (const rckalign::PairRow& r : run.results) {
    add_row(d, r);
    d.add(r.worker);
  }
  return d.h;
}

// -- CPU confinement -----------------------------------------------------------

/// Confines the calling thread, and every thread it starts, to `cpus` host
/// CPUs (the last ones it may run on) for the scope's lifetime; a no-op when
/// the thread may already run on no more than that.
///
/// The serial simulator (host threads 1) runs one simulated core at a time
/// and hands off between OS threads on every simulated op. Unconfined, each
/// handoff is a cross-CPU wake-up whose latency on a virtual machine swings
/// several-fold between runs (the sweep measured 1.1k to 4.1k pairs/s with
/// the same seed); confined to one CPU, the same handoffs are same-CPU
/// switches and repeat within a few percent. The unconfined cost stays
/// visible as scc.unconfined_replay_s. A run with T host threads gets T CPUs,
/// so the host-parallel scheduler keeps the parallelism it is given.
class Confine {
 public:
  explicit Confine(int cpus) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0 || CPU_COUNT(&saved_) <= cpus)
      return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c = CPU_SETSIZE - 1, left = cpus; c >= 0 && left > 0; --c)
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &set);
        --left;
      }
    active_ = sched_setaffinity(0, sizeof set, &set) == 0;
  }
  ~Confine() {
    if (active_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  Confine(const Confine&) = delete;
  Confine& operator=(const Confine&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

// -- simulated layer counts --------------------------------------------------

struct SimCounts {
  double events = 0, makespan_s = 0, slave_util = 0, messages = 0, bytes = 0,
         hops = 0, queueing_ms = 0;

  void add(const RunResult& run) {
    events += static_cast<double>(run.events);
    makespan_s += noc::to_seconds(run.makespan);
    double util = 0.0;
    for (std::size_t r = 1; r < run.core_reports.size(); ++r)
      util += safe_div(static_cast<double>(run.core_reports[r].busy),
                       static_cast<double>(run.makespan));
    slave_util += safe_div(util, static_cast<double>(run.core_reports.size() - 1));
    messages += static_cast<double>(run.network.messages);
    bytes += static_cast<double>(run.network.total_bytes);
    hops += static_cast<double>(run.network.total_hops);
    queueing_ms += 1e3 * noc::to_seconds(run.network.total_queueing);
  }
};

/// Host cost of cached rck::run calls.
struct ReplayCost {
  double wall_s = 0, cpu_s = 0, events = 0, nvcsw = 0;
};

RunResult timed_run(const std::vector<bio::Protein>& ds, const RunConfig& cfg,
                    ReplayCost& cost) {
  Scope s("scc.rck::run");
  Confine pin(cfg.runtime.host.threads);
  const Usage u0 = usage();
  const double t0 = now_s();
  RunResult run = rck::run(ds, cfg);
  const double t1 = now_s();
  const Usage u1 = usage();
  cost.wall_s += t1 - t0;
  cost.cpu_s += u1.cpu_s - u0.cpu_s;
  cost.nvcsw += static_cast<double>(u1.nvcsw - u0.nvcsw);
  cost.events += static_cast<double>(run.events);
  return run;
}

// -- shared workload plumbing ------------------------------------------------

/// Seed derivation: one benchmark seed drives every generated input.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<bio::Protein> dataset(bio::DatasetSpec spec, std::uint64_t seed) {
  spec.seed = seed;
  Scope s("bio.build_dataset");
  return bio::build_dataset(spec);
}

struct Iteration {
  double wall_s = 0, cpu_s = 0, pairs = 0;
};

/// What a workload hands back: raw samples, reduced into metrics by main().
struct Outcome {
  Ledger ledger;
  std::vector<double> setup_s;
  std::vector<Iteration> iterations;  ///< measured phase, one per repeat
  std::vector<double> traced_wall, untraced_wall;  ///< trace mode only
  /// Peak resident set through set-up and the first iteration, so that it
  /// does not depend on how many iterations fit in --seconds.
  double peak_rss_mb = 0;
  Metrics layer;  ///< per-layer metrics (trace mode)
};

/// One repeat of a workload, in three parts of which only `run` is timed:
/// `prepare` makes what the repeat consumes or adds set-up samples (may be
/// empty), `run` is the measured phase, `check` verifies its outputs.
struct Phases {
  std::function<void(int)> prepare;
  std::function<Iteration(int)> run;
  std::function<void(int)> check;
};

/// Runs the measured phase: repeats the phases until `seconds` have elapsed
/// (at least once; in trace mode at least twice, alternating measured phases
/// without and with inner spans). Each part is its own top-level span, so the
/// traced measured phases hold nothing but calls into the library.
void measure(const Args& a, Outcome& out, const Phases& ph) {
  const double start = now_s();
  for (int it = 0;; ++it) {
    if (ph.prepare) ph.prepare(it);
    g_tracer.detail = a.trace && it % 2 == 1;
    const double t0 = now_s();
    Iteration r;
    {
      Scope p(g_tracer.detail ? "iteration.traced" : "iteration");
      r = ph.run(it);
    }
    const double wall = now_s() - t0;
    if (a.trace) (g_tracer.detail ? out.traced_wall : out.untraced_wall).push_back(wall);
    g_tracer.detail = a.trace;
    out.iterations.push_back(r);
    {
      Scope p("check");
      ph.check(it);
    }
    if (it == 0) out.peak_rss_mb = peak_rss_mb();
    std::fprintf(stderr, "perfbench_e2e: iteration %d: %.0f pairs in %.3f s wall, %.3f s cpu\n",
                 it, r.pairs, r.wall_s, r.cpu_s);
    const bool minimum = !a.trace || it >= 1;
    if (minimum && (a.smoke || now_s() - start >= a.seconds)) break;
  }
}

/// Single-thread core::tmalign timings (ms per pair) and exact work counters.
/// One reused workspace, as each PairCache thread and simulated slave holds.
struct KernelSample {
  std::vector<double> ms;
  core::AlignStats stats;
  double seconds = 0;
  core::TmAlignWorkspace ws;
};

void time_tmalign(const bio::Protein& x, const bio::Protein& y, KernelSample& ks,
                  core::TmAlignResult& res) {
  Scope s("core.tmalign");
  const double t0 = now_s();
  res = core::tmalign(x, y, ks.ws);
  const double dt = now_s() - t0;
  ks.ms.push_back(1e3 * dt);
  ks.seconds += dt;
  ks.stats += res.stats;
}

void kernel_metrics(Metrics& m, const KernelSample& ks, const core::AlignStats& all,
                    double all_pairs) {
  m.samples("core.tmalign_ms_per_pair", ks.ms, "ms");
  m.set("core.mcells_per_s", safe_div(static_cast<double>(ks.stats.dp_cells),
                                      1e6 * ks.seconds), "Mcells/s");
  m.set("core.dp_cells_per_pair", safe_div(static_cast<double>(all.dp_cells), all_pairs), "count");
  m.set("core.kabsch_points_per_pair",
        safe_div(static_cast<double>(all.kabsch_points), all_pairs), "count");
  m.set("core.scored_pairs_per_pair",
        safe_div(static_cast<double>(all.scored_pairs), all_pairs), "count");
  m.set("core.iterations_per_pair",
        safe_div(static_cast<double>(all.iterations), all_pairs), "count");
}

/// Σ solo tmalign time over `pairs` pairs, extrapolated from the sample's
/// mean time per pair.
double solo_estimate_s(const KernelSample& ks, double pairs) {
  return safe_div(pairs * ks.seconds, static_cast<double>(ks.ms.size()));
}

void cache_metrics(Metrics& m, const std::vector<double>& build_s, double solo_s,
                   int threads) {
  const double wall = median(build_s);
  m.set("rckalign.cache_build_s", wall, "s");
  m.set("rckalign.cache_parallel_eff", safe_div(solo_s, threads * wall), "ratio");
}

core::AlignStats total_stats(const rckalign::PairCache& cache) {
  core::AlignStats s;
  const auto n = static_cast<std::uint32_t>(cache.chain_count());
  for (std::uint32_t j = 1; j < n; ++j)
    for (std::uint32_t i = 0; i < j; ++i) s += cache.at(i, j).stats;
  return s;
}

/// Codec round trip (encode/decode job, encode/decode outcome) per job.
void codec_metrics(Metrics& m, Ledger& led,
                   const std::vector<std::pair<const bio::Protein*, const bio::Protein*>>& jobs) {
  Scope s("rckalign.codec");
  std::vector<double> us;
  us.reserve(jobs.size());
  double bytes = 0;
  std::uint64_t bad = 0;
  std::uint32_t k = 0;
  for (const auto& [x, y] : jobs) {
    const double t0 = now_s();
    bio::Bytes job = rckalign::encode_pair_job(k, k + 1, rckalign::Method::TmAlign, *x, *y);
    const std::size_t job_size = job.size();
    const rckalign::PairJobData d = rckalign::decode_pair_job(std::move(job));
    rckalign::PairOutcome o;
    o.i = d.i;
    o.j = d.j;
    o.aligned_length = static_cast<std::uint32_t>(d.a.size());
    const rckalign::PairOutcome back = rckalign::decode_outcome(rckalign::encode_outcome(o));
    us.push_back(1e6 * (now_s() - t0));
    bytes += static_cast<double>(job_size);
    if (d.i != k || d.j != k + 1 || d.a.size() != x->size() || d.b.size() != y->size() ||
        back.i != o.i || back.j != o.j || back.aligned_length != o.aligned_length)
      ++bad;
    ++k;
  }
  led.attempted += jobs.size();
  if (bad) led.fail(bad, "codec round trip changed the job");
  m.samples("rckalign.codec_us_per_job", us, "us");
  m.set("rckalign.job_bytes", safe_div(bytes, static_cast<double>(jobs.size())), "bytes");
}

void replay_metrics(Metrics& m, const ReplayCost& c, const SimCounts& sim) {
  m.set("scc.replay_s", c.wall_s, "s");
  m.set("scc.replay_cpu_s", c.cpu_s, "s");
  m.set("scc.idle_frac", c.wall_s > 0 ? 1.0 - c.cpu_s / c.wall_s : 0.0, "ratio");
  m.set("scc.us_per_event", safe_div(1e6 * c.wall_s, c.events), "us");
  m.set("scc.ctx_switches_per_event", safe_div(c.nvcsw, c.events), "count");
  m.set("scc.events", sim.events, "count");
  m.set("scc.sim_makespan_s", sim.makespan_s, "sim_s");
  m.set("rckskel.slave_util_mean", sim.slave_util, "ratio");
  m.set("noc.messages", sim.messages, "count");
  m.set("noc.bytes", sim.bytes, "bytes");
  m.set("noc.hops", sim.hops, "count");
  m.set("noc.queueing_ms", sim.queueing_ms, "sim_ms");
}

/// obs recording cost: CPU of the cached 47-slave CK34 rck::run with
/// collection on over CPU with it off, alternated, median of the ratios.
void obs_probe(const Args& a, Metrics& m) {
  Scope p("probe.obs");
  const std::vector<bio::Protein> ds =
      dataset(a.smoke ? bio::tiny_spec() : bio::ck34_spec(), derive(a.seed, 2));
  rckalign::PairCache cache;
  {
    Scope s("rckalign.PairCache::build");
    cache = rckalign::PairCache::build(ds, a.threads);
  }
  RunConfig cfg;
  cfg.with_slaves(a.smoke ? 7 : 47).with_cache(&cache).with_host_threads(1);
  const auto cpu_of = [&ds](const RunConfig& c) {
    Confine pin(1);
    const double u0 = usage().cpu_s;
    rck::run(ds, c);
    return usage().cpu_s - u0;
  };
  std::vector<double> ratios, unconfined;
  for (int rep = 0; rep < 3; ++rep) {
    double off = 0, on = 0;
    {
      Scope s("scc.rck::run");
      off = cpu_of(cfg);
    }
    {
      Scope s("obs.rck::run+collect");
      on = cpu_of(RunConfig(cfg).with_collect(true));
    }
    ratios.push_back(safe_div(on, off));
    Scope s("scc.rck::run.unconfined");
    const double t0 = now_s();
    rck::run(ds, cfg);
    unconfined.push_back(now_s() - t0);
  }
  m.set("obs.collect_cpu_ratio", median(ratios), "ratio");
  m.set("scc.unconfined_replay_s", median(unconfined), "s");
}

/// Service metrics for workloads that never start a Service: the layer's
/// share of their host time is zero.
void no_service(Metrics& m) {
  m.set("service.ctor_s", 0, "s");
  m.set("service.drain_s", 0, "s");
  m.set("service.host_ms_per_round", 0, "ms");
  m.set("service.kernel_share", 0, "ratio");
  m.samples("service.add_structure_ms", {}, "ms");
  m.set("service.queries_per_round", 0, "count");
  m.set("service.shed_ratio", 0, "ratio");
  m.set("service.sim_latency_p50_s", 0, "sim_s");
  m.set("service.sim_latency_p90_s", 0, "sim_s");
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> sample_pairs(std::size_t n,
                                                                  std::size_t k,
                                                                  std::uint64_t seed) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> all = rckalign::all_pairs(n);
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < std::min(k, all.size()); ++i)
    std::swap(all[i], all[i + rng() % (all.size() - i)]);
  all.resize(std::min(k, all.size()));
  return all;
}

/// Set-up samples per run; setup_s is their median. Synthesizing RS119
/// takes about 10 ms, and this host's speed changes in phases of about half a
/// second (the same synthesis ran at 7 ms for one phase and 11 ms for the
/// next), so 151 samples taken at the start of a run put its median in
/// whichever phase the run began in (medians of 10 runs: 8.8 and 10.9 ms).
/// The all-vs-all workload therefore takes a block of samples before every
/// repeat too, spreading them over the whole run; the sweep, whose set-up
/// takes 0.3 s, adds one sample every kSweepSetupEvery repeats. The service
/// takes one set-up sample per repeat (about two per run) and tops them up
/// to kServiceSetupReps after the measured phase: its constructor runs on T
/// unconfined CPUs, and with five samples the spread over ten seeds reached
/// 0.235 (IQR/median) in one set.
constexpr std::size_t kServiceSetupReps = 9;
constexpr std::size_t kDatasetSetupReps = 101;
constexpr std::size_t kDatasetSetupBlock = 50;
constexpr std::size_t kSweepSetupReps = 5;
constexpr int kSweepSetupEvery = 3;
constexpr std::size_t kKernelSample = 100;

/// The two cached all-vs-all workloads after their measured phase: 100
/// seeded pairs must give the cache's result under a direct core::tmalign
/// (which also samples the kernel), and a traced run adds the layer probes.
void finish_cached(const Args& a, const std::vector<bio::Protein>& ds,
                   const rckalign::PairCache& cache, const std::vector<double>& build_s,
                   const ReplayCost& replay, const SimCounts& sim, Outcome& out) {
  KernelSample ks;
  {
    Scope p("check.kernel_sample");
    std::uint64_t bad = 0;
    for (const auto& [i, j] : sample_pairs(ds.size(), a.smoke ? 10 : kKernelSample,
                                           derive(a.seed, 3))) {
      core::TmAlignResult res;
      time_tmalign(ds[i], ds[j], ks, res);
      bad += !same_outcome(res, cache.at(i, j));
    }
    out.ledger.attempted += ks.ms.size();
    if (bad) out.ledger.fail(bad, "direct core::tmalign differs from the PairCache");
  }
  if (!a.trace) return;

  Metrics& m = out.layer;
  const core::AlignStats all = total_stats(cache);
  kernel_metrics(m, ks, all, static_cast<double>(cache.pair_count()));
  cache_metrics(m, build_s, solo_estimate_s(ks, static_cast<double>(cache.pair_count())),
                a.threads);
  {
    Scope p("probe.codec");
    std::vector<std::pair<const bio::Protein*, const bio::Protein*>> jobs;
    for (const auto& [i, j] : rckalign::all_pairs(ds.size())) jobs.emplace_back(&ds[i], &ds[j]);
    codec_metrics(m, out.ledger, jobs);
  }
  replay_metrics(m, replay, sim);
  obs_probe(a, m);
  no_service(m);
}

// -- allvsall-rs119 ----------------------------------------------------------

// A cold RS119 all-vs-all as scc_all_vs_all --dataset rs119 --slaves 47 runs
// it: PairCache::build on T threads, then one cached serial rck::run. Half
// kernel, half simulator.
Outcome run_allvsall(const Args& a) {
  Outcome out;
  const bio::DatasetSpec spec = a.smoke ? bio::tiny_spec() : bio::rs119_spec();
  std::vector<bio::Protein> ds;
  // Times `reps` syntheses as set-up samples; the last one is kept.
  const auto setup = [&](std::size_t reps) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Scope p("setup");
      const double t0 = now_s();
      std::vector<bio::Protein> made = dataset(spec, derive(a.seed, 1));
      out.setup_s.push_back(now_s() - t0);
      if (ds.empty()) ds = std::move(made);
    }
  };
  setup(a.smoke ? 1 : kDatasetSetupReps);

  RunConfig cfg;
  cfg.with_slaves(a.smoke ? 7 : 47).with_host_threads(1);
  std::vector<double> build_s;
  ReplayCost replay;
  SimCounts sim;
  std::optional<std::uint64_t> first_sim;
  std::unique_ptr<rckalign::PairCache> cache;
  RunResult run;
  const double pairs = static_cast<double>(bio::all_vs_all_pairs(ds.size()));

  Phases ph;
  ph.prepare = [&](int) { setup(a.smoke ? 1 : kDatasetSetupBlock); };
  ph.run = [&](int) {
    const Usage u0 = usage();
    const double t0 = now_s();
    {
      Scope s("rckalign.PairCache::build");
      cache = std::make_unique<rckalign::PairCache>(rckalign::PairCache::build(ds, a.threads));
    }
    const double t1 = now_s();
    ReplayCost cost;
    run = timed_run(ds, RunConfig(cfg).with_cache(cache.get()), cost);
    build_s.push_back(t1 - t0);
    replay = cost;
    return Iteration{now_s() - t0, usage().cpu_s - u0.cpu_s, pairs};
  };
  ph.check = [&](int it) {
    out.ledger.attempted += static_cast<std::uint64_t>(pairs);
    if (a.corrupt && it == 0) run.results.front().tm_norm_a += 1e-9;
    if (const std::uint64_t bad = check_rows(run.results, *cache))
      out.ledger.fail(bad, "rows differ from their PairCache entries");
    const std::uint64_t d = sim_digest(run);
    if (!first_sim) first_sim = d;
    else if (*first_sim != d)
      out.ledger.fail(static_cast<std::uint64_t>(pairs), "simulated results did not repeat");
    sim = SimCounts{};
    sim.add(run);
  };
  measure(a, out, ph);

  finish_cached(a, ds, *cache, build_s, replay, sim, out);
  return out;
}

// -- sweep-ck34 --------------------------------------------------------------

// The paper's Figure 5 sweep: the CK34 cache is built in set-up, and the
// measured phase replays the same 561 jobs at every slave count. Pure
// simulator dispatch; a kernel change must not move its pairs_per_s.
Outcome run_sweep(const Args& a) {
  Outcome out;
  std::vector<bio::Protein> ds;
  std::unique_ptr<rckalign::PairCache> cache;
  std::vector<double> build_s;
  const auto setup = [&] {
    Scope p("setup");
    const double t0 = now_s();
    ds = dataset(a.smoke ? bio::tiny_spec() : bio::ck34_spec(), derive(a.seed, 2));
    const double t1 = now_s();
    {
      Scope s("rckalign.PairCache::build");
      cache = std::make_unique<rckalign::PairCache>(rckalign::PairCache::build(ds, a.threads));
    }
    out.setup_s.push_back(now_s() - t0);
    build_s.push_back(now_s() - t1);
  };
  for (std::size_t rep = 0; rep < kSweepSetupReps; ++rep) setup();

  const std::vector<int> points = a.smoke ? std::vector<int>{1, 2, 4, 7}
                                          : std::vector<int>{1, 2, 4, 8, 16, 24, 32, 47};
  const double jobs = static_cast<double>(cache->pair_count());
  std::vector<std::uint64_t> first_sim;
  ReplayCost replay;
  SimCounts sim;
  std::vector<RunResult> runs;

  Phases ph;
  ph.prepare = [&](int it) {
    if (it > 0 && it % kSweepSetupEvery == 0) setup();
  };
  ph.run = [&](int) {
    const Usage u0 = usage();
    const double t0 = now_s();
    ReplayCost cost;
    runs.clear();
    for (int n : points)
      runs.push_back(timed_run(ds, RunConfig().with_slaves(n).with_cache(cache.get())
                                       .with_host_threads(1), cost));
    replay = cost;
    return Iteration{now_s() - t0, usage().cpu_s - u0.cpu_s,
                     jobs * static_cast<double>(points.size())};
  };
  ph.check = [&](int it) {
    out.ledger.attempted += static_cast<std::uint64_t>(jobs) * points.size();
    if (a.corrupt && it == 0) runs.back().results.front().rmsd += 1e-9;
    const std::uint64_t want = rows_digest(runs.front().results);
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const std::string at = " at " + std::to_string(points[k]) + " slaves";
      if (const std::uint64_t bad = check_rows(runs[k].results, *cache))
        out.ledger.fail(bad, "rows differ from their PairCache entries" + at);
      else if (rows_digest(runs[k].results) != want)
        out.ledger.fail(static_cast<std::uint64_t>(jobs), "row digest differs" + at);
      const std::uint64_t d = sim_digest(runs[k]);
      if (first_sim.size() < runs.size()) first_sim.push_back(d);
      else if (first_sim[k] != d)
        out.ledger.fail(static_cast<std::uint64_t>(jobs), "simulated results did not repeat" + at);
    }
    sim = SimCounts{};
    for (const RunResult& r : runs) sim.add(r);
    sim.slave_util /= static_cast<double>(runs.size());
  };
  measure(a, out, ph);

  finish_cached(a, ds, *cache, build_s, replay, sim, out);
  return out;
}

// -- service-ck34 ------------------------------------------------------------

// The resident service: the only live, uncached path, and the only one that
// writes beside its reads. Set-up constructs the Service (561 live
// comparisons); the measured phase drains a seeded query trace in windows
// with add_structure writes between them.
Outcome run_service(const Args& a) {
  Outcome out;
  const std::size_t windows = a.smoke ? 3 : 4;
  const std::size_t per_window = a.smoke ? 4 : 26;
  const int slaves = a.smoke ? 7 : 47;

  struct Inputs {
    std::vector<bio::Protein> db;
    std::vector<Query> trace;
    std::vector<bio::Protein> adds;
  };
  const auto make_inputs = [&] {
    Inputs in;
    in.db = dataset(a.smoke ? bio::tiny_spec() : bio::ck34_spec(), derive(a.seed, 4));
    service::TraceOptions topts;
    topts.seed = derive(a.seed, 5);
    topts.queries = windows * per_window;
    {
      Scope s("service.generate_trace");
      in.trace = service::generate_trace(in.db, topts);
    }
    bio::Rng rng(derive(a.seed, 6));
    for (std::size_t w = 0; w + 1 < windows; ++w)
      in.adds.push_back(bio::perturb(in.db[rng() % in.db.size()],
                                     "perfbench/add" + std::to_string(w), rng));
    return in;
  };

  RunConfig cfg;
  cfg.with_slaves(slaves).with_host_threads(a.threads);
  std::vector<double> ctor_s, drain_s, add_ms;
  service::Stats last_stats{};
  std::vector<QueryResult> last_results;
  std::optional<std::uint64_t> first_sim;
  KernelSample ks;
  std::vector<std::pair<const bio::Protein*, const bio::Protein*>> hit_pairs;
  std::vector<double> check_build_s;
  double check_pairs = 0;
  // The last iteration's inputs and Service; hit_pairs points into them.
  Inputs inputs;
  std::unique_ptr<service::Service> svc;

  // Builds the inputs and a fresh Service; `keep` hands them to the
  // measured phase, otherwise they only add a set-up sample.
  const auto setup = [&](bool keep) {
    Scope p("setup");
    const double t0 = now_s();
    Inputs in = make_inputs();
    const double t1 = now_s();
    std::unique_ptr<service::Service> s;
    {
      Scope span("service.Service");
      Confine pin(a.threads);
      s = std::make_unique<service::Service>(in.db, cfg);
    }
    out.setup_s.push_back(now_s() - t0);
    ctor_s.push_back(now_s() - t1);
    if (keep) {
      inputs = std::move(in);
      svc = std::move(s);
    }
  };

  std::vector<QueryResult> results;
  double jobs_done = 0;
  Phases ph;
  ph.prepare = [&](int) { setup(true); };  // a fresh Service per repeat
  ph.run = [&](int) {
    const service::Stats s0 = svc->stats();
    Confine pin(a.threads);
    const Usage u0 = usage();
    const double t0 = now_s();
    results.clear();
    double drain = 0;
    for (std::size_t w = 0; w < windows; ++w) {
      for (std::size_t q = w * per_window; q < (w + 1) * per_window; ++q) {
        Scope s("service.submit");
        svc->submit(inputs.trace[q]);
      }
      const double d0 = now_s();
      std::vector<QueryResult> got;
      {
        Scope s("service.drain");
        got = svc->drain();
      }
      drain += now_s() - d0;
      results.insert(results.end(), got.begin(), got.end());
      if (w + 1 < windows) {
        const double w0 = now_s();
        {
          Scope s("service.add_structure");
          svc->add_structure(inputs.adds[w]);
        }
        add_ms.push_back(1e3 * (now_s() - w0));
      }
    }
    const service::Stats& st = svc->stats();
    jobs_done = static_cast<double>(st.query_jobs - s0.query_jobs + st.matrix_jobs -
                                    s0.matrix_jobs);
    drain_s.push_back(drain);
    return Iteration{now_s() - t0, usage().cpu_s - u0.cpu_s, jobs_done};
  };
  ph.check = [&](int it) {
    const service::Stats& st = svc->stats();
    const auto jobs = static_cast<std::uint64_t>(jobs_done);
    out.ledger.attempted += jobs;
    if (a.corrupt && it == 0 && !results.empty() && !results.front().hits.empty())
      results.front().hits.front().tm_query += 1e-9;
    if (st.served + st.shed != st.submitted || results.size() != st.submitted)
      out.ledger.fail(jobs, "served + shed != submitted");

    // Every hit against a direct core::tmalign of its (probe, entry) pair;
    // the timings sample the kernel over the served pairs.
    std::uint64_t bad = 0;
    ks.ms.clear();
    ks.stats = {};
    ks.seconds = 0;
    hit_pairs.clear();
    for (const QueryResult& res : results) {
      const Query& q = inputs.trace[res.id - 1];
      for (const QueryHit& h : res.hits) {
        const bio::Protein& x = q.probes.at(h.probe);
        const bio::Protein& y = q.kind == QueryKind::Pair ? q.probes.at(h.entry)
                                                          : svc->entry(h.entry).protein;
        core::TmAlignResult t;
        time_tmalign(x, y, ks, t);
        hit_pairs.emplace_back(&x, &y);
        bad += !(t.tm_norm_a == h.tm_query && t.tm_norm_b == h.tm_entry &&
                 t.rmsd == h.rmsd && t.seq_identity == h.seq_identity &&
                 static_cast<std::uint32_t>(t.aligned_length) == h.aligned_length);
      }
    }
    if (bad) out.ledger.fail(bad, "hits differ from a direct core::tmalign");

    // The incrementally kept matrix against a from-scratch PairCache.
    std::vector<bio::Protein> final_db;
    for (std::size_t e = 0; e < svc->size(); ++e) final_db.push_back(svc->entry(e).protein);
    const double b0 = now_s();
    rckalign::PairCache fresh;
    {
      Scope s("rckalign.PairCache::build");
      fresh = rckalign::PairCache::build(final_db, a.threads);
    }
    check_build_s.push_back(now_s() - b0);
    check_pairs = static_cast<double>(fresh.pair_count());
    std::uint64_t bad_cells = 0;
    for (std::uint32_t j = 1; j < final_db.size(); ++j)
      for (std::uint32_t i = 0; i < j; ++i) {
        const service::MatrixCell& c = svc->matrix_at(i, j);
        const rckalign::PairEntry& e = fresh.at(i, j);
        bad_cells += !(c.tm_norm_a == e.tm_norm_a && c.tm_norm_b == e.tm_norm_b &&
                       c.rmsd == e.rmsd && c.seq_identity == e.seq_identity &&
                       c.aligned_length == e.aligned_length);
      }
    if (bad_cells) out.ledger.fail(bad_cells, "matrix differs from a from-scratch PairCache");

    Digest d;
    d.add(st);
    for (const QueryResult& res : results) {
      d.add(res.completion);
      d.add(res.shed);
      for (const QueryHit& h : res.hits) {
        d.add(h.probe);
        d.add(h.entry);
        d.add(h.tm_query);
        d.add(h.tm_entry);
        d.add(h.rmsd);
        d.add(h.seq_identity);
        d.add(h.aligned_length);
        d.add(h.worker);
      }
    }
    if (!first_sim) first_sim = d.h;
    else if (*first_sim != d.h) out.ledger.fail(jobs, "simulated results did not repeat");
    last_stats = st;
    last_results = results;
  };
  measure(a, out, ph);
  while (out.setup_s.size() < kServiceSetupReps) setup(false);
  if (!a.trace) return out;

  Metrics& m = out.layer;
  // Exact work counters over the checked (served) pairs.
  kernel_metrics(m, ks, ks.stats, static_cast<double>(ks.ms.size()));
  cache_metrics(m, check_build_s, solo_estimate_s(ks, check_pairs), a.threads);
  {
    Scope p("probe.codec");
    codec_metrics(m, out.ledger, hit_pairs);
  }
  replay_metrics(m, ReplayCost{}, SimCounts{});
  obs_probe(a, m);

  const double drain = median(drain_s);
  const double rounds = static_cast<double>(last_stats.rounds);
  m.set("service.ctor_s", median(ctor_s), "s");
  m.set("service.drain_s", drain, "s");
  m.set("service.host_ms_per_round", safe_div(1e3 * drain, rounds), "ms");
  // Σ solo tmalign over every served spec, from the checked hits' mean.
  const double solo = safe_div(ks.seconds, static_cast<double>(ks.ms.size())) *
                      static_cast<double>(last_stats.query_jobs);
  m.set("service.kernel_share", safe_div(solo, drain), "ratio");
  m.samples("service.add_structure_ms", add_ms, "ms");
  m.set("service.queries_per_round",
        safe_div(static_cast<double>(last_stats.served), rounds), "count");
  m.set("service.shed_ratio", safe_div(static_cast<double>(last_stats.shed),
                                       static_cast<double>(last_stats.submitted)), "ratio");
  std::vector<double> lat;
  for (const QueryResult& res : last_results)
    if (!res.shed) lat.push_back(noc::to_seconds(res.completion - res.arrival));
  std::sort(lat.begin(), lat.end());
  const auto pct = [&lat](double p) {
    return lat.empty() ? 0.0
                       : lat[static_cast<std::size_t>(p * static_cast<double>(lat.size() - 1))];
  };
  m.set("service.sim_latency_p50_s", pct(0.5), "sim_s");
  m.set("service.sim_latency_p90_s", pct(0.9), "sim_s");
  return out;
}

// -- span accounting ---------------------------------------------------------

/// Self time per module (span name prefix before '.'): a span's duration
/// minus the part its children cover. Phases (setup, iteration, check, probe)
/// count as "bench", and iterations run without inner spans as "untraced".
/// Sets trace.accounted_frac, the share of `wall` the top-level spans cover,
/// and trace.layer_frac, the share of the traced measured phases
/// (iteration.traced) that layer self time covers.
struct Accounting {
  double accounted_frac = 0, layer_frac = 0;
};

Accounting attribution(Metrics& m, double wall) {
  const std::vector<Tracer::Span>& spans = g_tracer.spans();
  std::vector<double> child(spans.size(), 0.0);
  double top = 0;
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    else top += s.end - s.start;
  }
  const std::vector<std::string> modules{"bio",  "core",    "rckalign", "scc",
                                         "obs", "service", "untraced"};
  const std::size_t layers = modules.size() - 1;  // "untraced" is no layer
  std::vector<double> self(modules.size() + 1, 0.0);
  double traced_iter = 0, traced_layer = 0;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const std::string mod = spans[k].name == "iteration"
                                ? "untraced"
                                : spans[k].name.substr(0, spans[k].name.find('.'));
    const auto m_at = static_cast<std::size_t>(
        std::find(modules.begin(), modules.end(), mod) - modules.begin());
    const double own = spans[k].end - spans[k].start - child[k];
    self[m_at] += own;
    std::size_t root = k;
    while (spans[root].parent >= 0) root = static_cast<std::size_t>(spans[root].parent);
    if (spans[root].name != "iteration.traced") continue;
    if (root == k) traced_iter += spans[k].end - spans[k].start;
    else if (m_at < layers) traced_layer += own;
  }
  for (std::size_t k = 0; k < modules.size(); ++k)
    m.set("time." + modules[k] + "_s", self[k], "s");
  m.set("time.bench_s", self.back(), "s");
  m.set("trace.wall_s", wall, "s");
  const Accounting acc{safe_div(top, wall), safe_div(traced_layer, traced_iter)};
  m.set("trace.accounted_frac", acc.accounted_frac, "ratio");
  m.set("trace.layer_frac", acc.layer_frac, "ratio");
  return acc;
}

void write_file(const Args& a, const Fingerprint& fp, const std::string& result) {
  if (a.out_dir.empty()) return;
  const std::string path = a.out_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
                           (a.trace ? "-trace" : "") + ".json";
  std::string doc = "{\"schema\": \"rck-perfbench-result-v1\", \"workload\": " +
                    json_string(a.workload) + ", \"seed\": " + std::to_string(a.seed) +
                    ", \"seconds\": ";
  obs::append_json_double(doc, a.seconds);
  doc += ", \"smoke\": " + std::string(a.smoke ? "true" : "false") +
         ", \"host\": " + fingerprint_json(fp) + ", \"result\": " + result;
  if (a.trace) {
    doc += ", \"trace_id\": " + std::to_string(g_tracer.trace_id) + ", \"spans\": [";
    const std::vector<Tracer::Span>& spans = g_tracer.spans();
    for (std::size_t k = 0; k < spans.size(); ++k) {
      doc += k ? ",\n  " : "\n  ";
      doc += "{\"name\": " + json_string(spans[k].name) + ", \"start_s\": ";
      obs::append_json_double(doc, spans[k].start);
      doc += ", \"end_s\": ";
      obs::append_json_double(doc, spans[k].end);
      doc += ", \"parent\": " + std::to_string(spans[k].parent) + "}";
    }
    doc += "]";
  }
  doc += "}\n";
  std::ofstream(path) << doc;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena, for every phase. With glibc's default of up to eight
  // arenas per CPU, which of the ~50 simulator threads lands in which arena
  // is a race: across seeds the sweep's peak resident set spread 0.44
  // (IQR/median, 23-41 MB) and the service's pairs_per_s 0.43; with one
  // arena, 0.03-0.07 and 0.07-0.17. What this hides is in perfbench/NOTES.md.
  mallopt(M_ARENA_MAX, 1);
  const Args a = parse(argc, argv);
  const Fingerprint fp = fingerprint(a.threads);
  if (a.threads > static_cast<int>(fp.nproc)) {
    std::fprintf(stderr, "perfbench_e2e: refusing --threads %d on a host with %u hardware "
                         "threads\n", a.threads, fp.nproc);
    return 2;
  }
  std::printf("host %s\n", fingerprint_json(fp).c_str());

  g_tracer.on = a.trace;
  g_tracer.detail = a.trace;
  g_tracer.trace_id = derive(a.seed, static_cast<std::uint64_t>(
                                         Clock::now().time_since_epoch().count()));
  Outcome out;
  const double t0 = now_s();
  try {
    if (a.workload == "allvsall-rs119") out = run_allvsall(a);
    else if (a.workload == "sweep-ck34") out = run_sweep(a);
    else out = run_service(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s failed: %s\n", a.workload.c_str(), e.what());
    return 1;
  }
  const double wall = now_s() - t0;

  Metrics metrics;
  if (!a.trace) {
    std::vector<double> rate, cpu;
    for (const Iteration& it : out.iterations) {
      rate.push_back(safe_div(it.pairs, it.wall_s));
      cpu.push_back(safe_div(1e3 * it.cpu_s, it.pairs));
    }
    metrics.set("setup_s", median(out.setup_s), "s");
    metrics.set("pairs_per_s", median(rate), "1/s");
    metrics.set("cpu_ms_per_pair", median(cpu), "ms");
    metrics.set("peak_rss_mb", out.peak_rss_mb, "MB");
  } else {
    metrics = std::move(out.layer);
    std::vector<double> ds_s;
    for (const Tracer::Span& s : g_tracer.spans())
      if (s.name == "bio.build_dataset") ds_s.push_back(s.end - s.start);
    metrics.set("bio.dataset_s", median(ds_s), "s");
    metrics.set("trace.overhead_s", median(out.traced_wall) - median(out.untraced_wall), "s");
    const Accounting acc = attribution(metrics, wall);
    if (std::fabs(acc.accounted_frac - 1.0) > 0.05)
      out.ledger.fail(1, "top-level spans cover " + std::to_string(100 * acc.accounted_frac) +
                             "% of the traced wall time");
    if (acc.layer_frac < 0.95)
      out.ledger.fail(1, "layer spans cover " + std::to_string(100 * acc.layer_frac) +
                             "% of the traced measured phases");
  }

  const std::uint64_t failed = std::min(out.ledger.failed, out.ledger.attempted);
  const std::string result =
      "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(out.ledger.attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": " + metrics.json() + "}";
  write_file(a, fp, result);
  std::printf("%s\n", result.c_str());
  return 0;
}
