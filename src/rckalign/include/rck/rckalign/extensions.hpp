// Extensions the paper discusses but did not evaluate (Section V / VI):
//
//  1. Multi-criteria PSC (MC-PSC): "all slave processes are not required to
//     run the same PSC algorithm ... different slave processes can be
//     running different algorithms on the same data received from the
//     master". run_multi_method() partitions the slave cores into one group
//     per method (TM-align + gapless RMSD is the paper's two-criteria case)
//     and farms every group's job stream from one master, using the
//     per-subtask UE restriction of the rckskel task tree.
//
//  2. Hierarchical masters: "this can be tackled by implementing a
//     hierarchy of master processes such that a master does not become a
//     bottleneck for the slaves it controls". run_hierarchical() puts a
//     root master over G group masters, each farming to its own slave set;
//     the root dispatches one strided batch of jobs per group, so a whole
//     group stays busy and synchronizes with the root once.
#pragma once

#include <cstdint>
#include <vector>

#include "rck/bio/protein.hpp"
#include "rck/rckalign/app.hpp"

namespace rck::rckalign {

/// MC-PSC: any number of methods, each with its own dedicated slave-core
/// group (the paper: "partition of cores to different tasks is
/// implementation specific ... facilitated using the library").
struct MethodGroup {
  Method method = Method::TmAlign;
  int slaves = 1;
};

struct MultiMethodOptions {
  scc::RuntimeConfig runtime{};
  std::vector<MethodGroup> groups;
  /// TM-align replay table and exact cost hints (optional; without one the
  /// TM-align outcomes are computed ahead on runtime.host.threads).
  const PairCache* cache = nullptr;
  bool lpt = false;
};

struct MultiMethodRun {
  noc::SimTime makespan = 0;
  /// Results per group, same order as options.groups.
  std::vector<std::vector<PairRow>> results;
  std::vector<scc::CoreReport> core_reports;
};

MultiMethodRun run_multi_method(const std::vector<bio::Protein>& dataset,
                                const MultiMethodOptions& opts);

struct HierarchyOptions {
  scc::RuntimeConfig runtime{};
  int group_count = 4;   ///< number of sub-masters (ranks 1..group_count)
  int slave_count = 40;  ///< total leaf slaves, split evenly across groups
  /// As MultiMethodOptions::cache.
  const PairCache* cache = nullptr;
};

struct HierarchyRun {
  noc::SimTime makespan = 0;
  std::vector<PairRow> results;
  std::vector<scc::CoreReport> core_reports;
};

/// Two-level master hierarchy over the same all-vs-all workload.
HierarchyRun run_hierarchical(const std::vector<bio::Protein>& dataset,
                              const HierarchyOptions& opts);

}  // namespace rck::rckalign
