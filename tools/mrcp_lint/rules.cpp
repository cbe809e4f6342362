#include "rules.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <regex>
#include <set>

namespace mrcp::lint {
namespace {

bool path_contains(const std::string& path, const std::string& fragment) {
  return path.find(fragment) != std::string::npos;
}

void report(const SourceFile& file, int line, int col, const char* rule,
            std::string message, std::vector<Finding>& findings) {
  if (file.allowed(line, rule)) return;
  findings.push_back(Finding{file.path, line, col, rule, std::move(message)});
}

// --------------------------------------------------------------------------
// unordered-iteration
// --------------------------------------------------------------------------

const std::regex kUnorderedDecl(
    R"(\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<)");
const std::regex kForHead(R"(\bfor\s*\()");
const std::regex kIdent(R"([A-Za-z_]\w*)");

/// Parse `for (...)` starting at the opening paren: returns the range
/// expression of a range-for (text after the top-level ':' that is not
/// part of a '::'), or an empty string for a classic for / no match.
/// Single-line headers only — multi-line is rare and self-documenting.
std::string range_for_expression(const std::string& line, std::size_t open) {
  int depth = 0;
  std::size_t colon = std::string::npos;
  for (std::size_t j = open; j < line.size(); ++j) {
    const char c = line[j];
    if (c == '(' || c == '{' || c == '[') ++depth;
    if (c == ')' || c == '}' || c == ']') {
      --depth;
      if (depth == 0) {
        if (colon == std::string::npos) return "";
        return line.substr(colon + 1, j - colon - 1);
      }
    }
    if (c == ':' && depth == 1 && colon == std::string::npos) {
      const char prev = j > 0 ? line[j - 1] : '\0';
      const char next = j + 1 < line.size() ? line[j + 1] : '\0';
      if (prev != ':' && next != ':') colon = j;
    }
    if (c == ';') return "";  // classic for
  }
  return "";
}

void rule_unordered_iteration(const SourceFile& file,
                              std::vector<Finding>& findings) {
  // Pass 1: names declared with an unordered container type anywhere in
  // this file (member or local — either way its iteration order is
  // hash-order).
  std::set<std::string> unordered_names;
  for (const std::string& line : file.sanitized) {
    for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                        kUnorderedDecl);
         it != std::sregex_iterator(); ++it) {
      // The declared name is the first identifier after the closing '>'
      // of the template argument list.
      std::size_t pos = static_cast<std::size_t>(it->position()) +
                        static_cast<std::size_t>(it->length());
      int depth = 1;
      while (pos < line.size() && depth > 0) {
        if (line[pos] == '<') ++depth;
        if (line[pos] == '>') --depth;
        ++pos;
      }
      if (depth != 0) continue;  // template args continue on the next line
      std::smatch m;
      std::string rest = line.substr(pos);
      if (std::regex_search(rest, m, kIdent))
        unordered_names.insert(m.str());
    }
  }

  // Pass 2: range-fors whose range mentions an unordered name or an
  // unordered container expression directly.
  for (std::size_t i = 0; i < file.sanitized.size(); ++i) {
    const std::string& line = file.sanitized[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kForHead);
         it != std::sregex_iterator(); ++it) {
      const std::size_t open = static_cast<std::size_t>(it->position()) +
                               static_cast<std::size_t>(it->length()) - 1;
      const std::string range = range_for_expression(line, open);
      if (range.empty()) continue;
      bool hits = range.find("unordered_") != std::string::npos;
      if (!hits) {
        for (auto id = std::sregex_iterator(range.begin(), range.end(),
                                            kIdent);
             id != std::sregex_iterator(); ++id) {
          if (unordered_names.count(id->str()) > 0) {
            hits = true;
            break;
          }
        }
      }
      if (hits) {
        report(file, static_cast<int>(i) + 1,
               static_cast<int>(it->position()) + 1, "unordered-iteration",
               "range-for over an unordered container: hash-order iteration "
               "is nondeterministic; iterate a sorted copy or index vector",
               findings);
      }
    }
  }
}

// --------------------------------------------------------------------------
// raw-time-literal
// --------------------------------------------------------------------------

// Both forms of a unit-less tick count entering the Time domain: a bare
// construction `Time{250}` and a braced declaration `Time delay{250}`.
const std::regex kTimeLiteral(
    R"(\b(?:Time|Ticks)\s*(?:[A-Za-z_]\w*\s*)?\{\s*(-?\d[\d']*)\s*\})");

void rule_raw_time_literal(const SourceFile& file, const RuleOptions& options,
                           std::vector<Finding>& findings) {
  if (!path_contains(file.path, options.time_literal_scope)) return;
  if (path_contains(file.path, "common/types.h")) return;
  for (std::size_t i = 0; i < file.sanitized.size(); ++i) {
    const std::string& line = file.sanitized[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(),
                                        kTimeLiteral);
         it != std::sregex_iterator(); ++it) {
      std::string digits = (*it)[1].str();
      digits.erase(std::remove(digits.begin(), digits.end(), '\''),
                   digits.end());
      const long long v = std::strtoll(digits.c_str(), nullptr, 10);
      if (v >= -1 && v <= 1) continue;  // zero/epsilon are unit-free
      report(file, static_cast<int>(i) + 1,
             static_cast<int>(it->position()) + 1, "raw-time-literal",
             "raw tick count " + digits +
                 " hides its unit; use seconds_to_ticks or a named constant",
             findings);
    }
  }
}

// --------------------------------------------------------------------------
// Pattern rules (no-std-rand, no-naked-new, no-raw-clock, raw-file-io): a
// match on the sanitized line is a finding, located at capture group 1
// when the pattern has one.
// --------------------------------------------------------------------------

void rule_pattern(const SourceFile& file, const std::regex& pattern,
                  const char* rule, const std::string& message,
                  std::vector<Finding>& findings) {
  for (std::size_t i = 0; i < file.sanitized.size(); ++i) {
    const std::string& line = file.sanitized[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), pattern);
         it != std::sregex_iterator(); ++it) {
      const auto col =
          it->size() > 1 && (*it)[1].matched ? it->position(1) : it->position();
      report(file, static_cast<int>(i) + 1, static_cast<int>(col) + 1, rule,
             message, findings);
    }
  }
}

const std::regex kStdRand(R"(\bstd\s*::\s*rand\b|\bs?rand\s*\()");
// `new T` in an expression; placement new (`new (buf) T`) and
// `operator new` declarations are not ownership-taking allocations.
const std::regex kNakedNew(R"((?:^|[^\w])(new)\s+[A-Za-z_:])");
const std::regex kRawClock(
    R"(\bstd\s*::\s*time\s*\(|\bgettimeofday\s*\()"
    R"(|\bsystem_clock\s*::\s*now\b|\bclock_gettime\s*\()");

// --------------------------------------------------------------------------
// rng-construction
// --------------------------------------------------------------------------

const std::regex kRngType(
    R"(\bstd\s*::\s*(mt19937(?:_64)?|minstd_rand0?|default_random_engine|knuth_b|ranlux(?:24|48)(?:_base)?|random_device)\b)");

std::size_t skip_space(const std::string& line, std::size_t pos) {
  while (pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[pos])) != 0)
    ++pos;
  return pos;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void rule_rng_construction(const SourceFile& file, const RuleOptions& options,
                           std::vector<Finding>& findings) {
  bool home = false;
  for (const std::string& h : options.rng_home)
    home = home || path_contains(file.path, h);
  for (std::size_t i = 0; i < file.sanitized.size(); ++i) {
    const std::string& line = file.sanitized[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kRngType);
         it != std::sregex_iterator(); ++it) {
      // A *construction* is the type followed by a declarator or an
      // initializer. A reference/pointer (`std::mt19937_64&`) or a
      // template argument position is a pass-through, not a new engine.
      std::size_t pos = skip_space(
          line, static_cast<std::size_t>(it->position()) +
                    static_cast<std::size_t>(it->length()));
      const char c = pos < line.size() ? line[pos] : '\0';
      const bool constructs =
          c == '{' || c == '(' ||
          (ident_char(c) && std::isdigit(static_cast<unsigned char>(c)) == 0);
      if (!constructs) continue;
      // Inside RandomStream's home only an *unseeded* engine is a finding:
      // a random_device, or a declarator/temporary with no seed argument.
      if (home && (*it)[1].str() != "random_device") {
        while (pos < line.size() && ident_char(line[pos])) ++pos;
        pos = skip_space(line, pos);
        const std::string rest = line.substr(pos, 2);
        const bool unseeded = (!rest.empty() && rest[0] == ';') ||
                              rest == "{}" || rest == "()";
        if (!unseeded) continue;
      }
      report(file, static_cast<int>(i) + 1,
             static_cast<int>(it->position()) + 1, "rng-construction",
             home ? "unseeded random engine: every engine in RandomStream "
                    "must be seeded for reproducibility"
                  : "random engine constructed outside RandomStream; all "
                    "randomness must flow through common/rng.h for "
                    "reproducibility",
             findings);
    }
  }
}

// --------------------------------------------------------------------------
// raw-file-io
// --------------------------------------------------------------------------

// Write-capable file I/O only: an ofstream/fstream mention or a C stdio
// write call. std::ifstream is read-only and deliberately not matched —
// loaders may read anywhere; it is *writes* that must flow through the
// checksummed framing layer so crash recovery sees them.
const std::regex kRawFileIo(
    R"(\bstd\s*::\s*(?:ofstream|fstream)\b|\b(?:fopen|freopen|fwrite)\s*\()");

void rule_raw_file_io(const SourceFile& file, const RuleOptions& options,
                      std::vector<Finding>& findings) {
  if (!path_contains(file.path, options.file_io_scope)) return;
  for (const std::string& home : options.file_io_homes)
    if (path_contains(file.path, home)) return;
  rule_pattern(file, kRawFileIo, "raw-file-io",
               "raw write-capable file I/O outside src/common/io and "
               "src/sim/trace_export; route through io::write_text_file or "
               "the framed record writer so durability covers the write",
               findings);
}

}  // namespace

void run_rules(const SourceFile& file, const RuleOptions& options,
               std::vector<Finding>& findings) {
  rule_unordered_iteration(file, findings);
  rule_raw_time_literal(file, options, findings);
  rule_rng_construction(file, options, findings);
  rule_raw_file_io(file, options, findings);
  rule_pattern(file, kStdRand, "no-std-rand",
               "std::rand/srand are global-state and unseeded; draw from a "
               "RandomStream",
               findings);
  rule_pattern(file, kNakedNew, "no-naked-new",
               "naked new: own through a value, a container or "
               "std::make_unique",
               findings);
  rule_pattern(file, kRawClock, "no-raw-clock",
               "raw wall-clock read; time budgets through common/stopwatch.h",
               findings);
}

}  // namespace mrcp::lint
