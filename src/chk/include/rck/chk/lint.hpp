// rck::chk::lint — the static half of the analysis subsystem.
//
// A lightweight, libclang-free linter enforcing the repo invariants that
// reviews have so far policed by hand (see DESIGN.md, "Analysis &
// invariants"):
//
//   determinism      no wall-clock / PRNG / iteration-order leaks inside the
//                    simulation libraries (src/scc, src/noc, src/rcce,
//                    src/rckskel, src/chk, src/mc — replayable exploration
//                    needs the same guarantee the simulator gives)
//   fiber-blocking   no std::thread / jthread / mutex / condition_variable /
//                    async in src/scc, src/noc, src/rcce, src/rckskel:
//                    simulated cores are fibers on one thread, so a blocking
//                    OS primitive there stalls the whole simulation
//   throw-taxonomy   every `throw` in src/ + tools/ constructs an
//                    *Error-suffixed class (the rck::Error taxonomy with
//                    dotted codes) or is a bare rethrow
//   error-codes      every code-shaped string literal (`rck.<family>.<leaf>`,
//                    e.g. "rck.skel.checkpoint") in src/ + tools/ belongs to
//                    the registry of minted codes — typos and unregistered
//                    families fail the lint
//   hot-path-alloc   no new/malloc/container growth in the PR 3 SIMD kernel
//                    hot-path files
//   include-hygiene  quoted includes are either `rck/...` (public headers
//                    through the umbrella layout) or same-directory private
//                    headers; no `../` paths; only src/rck may include the
//                    rck/rck.hpp umbrella
//   layering         the include DAG between src libraries: every direct
//                    rck/... include edge must appear in the explicit
//                    allowed-edges table (src/chk/lint.cpp, kLayerEdges) or
//                    the registered-exception list — bio/core never see the
//                    simulator, sim layers never reach the umbrella/service
//
// The engine works on a comment/string-stripped view of each file (a real
// tokenizer pass, not raw grep), so banned names inside comments or string
// literals never fire. Individual lines opt out with
//   // rck-lint: allow(<rule>[, <rule>...])
// on the same or the preceding line.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rck::chk::lint {

/// One rule violation at a specific line.
struct Finding {
  std::string file;  ///< repo-relative path, forward slashes
  int line = 0;      ///< 1-based
  std::string rule;
  std::string message;

  bool operator==(const Finding&) const = default;
};

/// Rules that apply to `repo_rel_path` (forward-slash, repo-relative, e.g.
/// "src/scc/runtime.cpp"). Empty for files the linter does not cover.
std::vector<std::string> rules_for(std::string_view repo_rel_path);

/// Lint one file. Applies rules_for(path); honors rck-lint waivers.
std::vector<Finding> lint_file(std::string_view repo_rel_path,
                               std::string_view content);

/// Blank comments and string/char-literal bodies (keeping the quote marks
/// and all newlines) so line-based rules see code only. Exposed for tests.
std::string strip(std::string_view content);

/// Render findings as a stable JSON array of {rule, path, line, message}
/// objects in lint_file order — the payload behind `rck_lint --json` and
/// the machine-readable half of the CI analysis leg.
std::string to_json(const std::vector<Finding>& findings);

}  // namespace rck::chk::lint
