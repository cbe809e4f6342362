// mrcp-lint rule definitions: the repo's one custom lint analyzer.
//
// Structural rules (they need scope or declaration context, not just a
// pattern):
//
//   unordered-iteration   range-for over a std::unordered_{map,set,multimap,
//                         multiset} — hash-order iteration feeding any
//                         downstream plan/output ordering is nondeterministic
//                         across standard libraries and even runs (pointer
//                         hashing). Iterate a sorted copy or an index vector.
//   raw-time-literal      Time{N}/Ticks{N} with |N| > 1 in production code
//                         (src/ outside common/types.h): a raw tick count
//                         hides its unit; route through seconds_to_ticks or
//                         name the constant. Time{0}/Time{1} stay legal —
//                         zero/epsilon have no unit ambiguity.
//   rng-construction      constructing a std:: random engine or a
//                         random_device outside src/common/rng.* —
//                         all randomness must flow through RandomStream
//                         (seeded, stream-split, reproducible). Inside
//                         that home, an unseeded engine (default-
//                         constructed, or a random_device) is flagged.
//   raw-file-io           write-capable file I/O (std::ofstream,
//                         std::fstream, fopen, fwrite) in production code
//                         outside the sanctioned homes (src/common/io/,
//                         src/sim/trace_export.*). Everything the
//                         scheduler persists must flow through the
//                         checksummed framing layer so crash recovery
//                         (docs/crash_recovery.md) sees every write;
//                         read-only std::ifstream stays legal everywhere.
//
// Pattern rules (a match on the comment/string-blanked line):
//
//   no-std-rand           std::rand / rand( / srand( — global-state,
//                         unseeded randomness.
//   no-naked-new          `new T` in an expression: ownership is values,
//                         containers and std::make_unique. Placement new
//                         and `operator new` are not matched.
//   no-raw-clock          std::time(, gettimeofday(, system_clock::now,
//                         clock_gettime( — wall-clock reads outside
//                         common/stopwatch.h leak nondeterminism.
//
// Every rule honours the `lint-ok: <rule>` comment convention described
// in docs/static_analysis.md.
#pragma once

#include <string>
#include <vector>

#include "source_file.h"

namespace mrcp::lint {

struct Finding {
  std::string file;
  int line = 0;
  int column = 0;  ///< 1-based.
  std::string rule;
  std::string message;
};

/// Options controlling which paths each rule applies to.
struct RuleOptions {
  /// raw-time-literal only fires inside this path fragment (production
  /// code); tests/bench construct ad-hoc tick values by design.
  std::string time_literal_scope = "src/";
  /// Files whose path contains any of these fragments may construct RNG
  /// engines (the RandomStream implementation itself).
  std::vector<std::string> rng_home = {"src/common/rng."};
  /// raw-file-io only fires inside this path fragment (production code);
  /// tests and tools write scratch files by design.
  std::string file_io_scope = "src/";
  /// Files whose path contains any of these fragments may perform raw
  /// write-capable file I/O: the framing layer itself, and the CSV trace
  /// exporter (human-facing output, deliberately outside the journal).
  std::vector<std::string> file_io_homes = {"src/common/io/",
                                            "src/sim/trace_export."};
};

/// Run all rules over `file`, appending findings.
void run_rules(const SourceFile& file, const RuleOptions& options,
               std::vector<Finding>& findings);

}  // namespace mrcp::lint
