// mrcp-lint: the custom lint analyzer for the MRCP-RM tree.
//
// Enforces the repo's determinism and ownership invariants, from plain
// banned-call patterns to rules that need declaration or scope context —
// see rules.h for the rule catalogue and docs/static_analysis.md for
// where this sits in the static-analysis stack.
//
// Usage:
//   mrcp-lint [--json] [--compile-commands <path>] [--dir <d>]... [file]...
//
// File discovery follows compile_commands.json (the same database
// clang-tidy uses) so the lint set and the build set cannot drift;
// --dir adds headers, which never appear as translation units, and trees
// outside the build. A --dir sweep takes *.cpp and *.h only: *.cc is
// reserved for the tests/lint fixtures, which violate every rule on
// purpose. The frontend is a purpose-built comment/string-aware scanner
// rather than libclang — the build image carries no clang dev headers —
// structured so a libclang-backed frontend can replace source_file.h
// without touching the rules (docs/static_analysis.md#mrcp-lint).
//
// Output: one `file:line:col: [rule] message` line per finding, or a
// JSON array with --json. Exit 0 = clean, 1 = findings, 2 = bad usage.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rules.h"
#include "source_file.h"

namespace mrcp::lint {
namespace {

bool has_source_extension(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".h" || ext == ".cc" || ext == ".hpp";
}

/// Pull the "file" entries out of a compile database. The format is a
/// JSON array of objects; a field-level regex is enough here and avoids
/// a JSON dependency the image does not carry.
bool files_from_compile_commands(const std::string& path,
                                 std::set<std::string>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::regex entry(R"rx("file"\s*:\s*"((?:[^"\\]|\\.)+)")rx");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), entry);
       it != std::sregex_iterator(); ++it) {
    std::string f = (*it)[1].str();
    // Unescape the two sequences cmake actually emits in paths.
    std::string clean;
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (f[i] == '\\' && i + 1 < f.size()) {
        clean.push_back(f[++i]);
      } else {
        clean.push_back(f[i]);
      }
    }
    if (has_source_extension(clean)) out.insert(clean);
  }
  return true;
}

void files_from_dir(const std::string& dir, std::set<std::string>& out) {
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (ec) break;
    const std::string ext = it->path().extension().string();
    if (it->is_regular_file(ec) && (ext == ".cpp" || ext == ".h"))
      out.insert(it->path().string());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x", c);
          out += hex;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

int run(int argc, char** argv) {
  bool json = false;
  std::set<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--compile-commands") {
      if (++i >= argc) {
        std::cerr << "mrcp-lint: --compile-commands needs a path\n";
        return 2;
      }
      if (!files_from_compile_commands(argv[i], files)) {
        std::cerr << "mrcp-lint: cannot read " << argv[i] << "\n";
        return 2;
      }
    } else if (arg == "--dir") {
      if (++i >= argc) {
        std::cerr << "mrcp-lint: --dir needs a directory\n";
        return 2;
      }
      files_from_dir(argv[i], files);
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: mrcp-lint [--json] [--compile-commands <path>] "
                   "[--dir <d>]... [file]...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mrcp-lint: unknown option " << arg << "\n";
      return 2;
    } else {
      files.insert(arg);
    }
  }
  if (files.empty()) {
    std::cerr << "mrcp-lint: no input files (see --help)\n";
    return 2;
  }

  RuleOptions options;
  std::vector<Finding> findings;
  for (const std::string& f : files) {
    SourceFile src;
    if (!load_source(f, src)) {
      std::cerr << "mrcp-lint: cannot read " << f << "\n";
      return 2;
    }
    run_rules(src, options, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.column < b.column;
            });

  if (json) {
    std::cout << "[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      std::cout << (i == 0 ? "\n" : ",\n")
                << "  {\"file\": \"" << json_escape(f.file)
                << "\", \"line\": " << f.line
                << ", \"column\": " << f.column << ", \"rule\": \""
                << json_escape(f.rule) << "\", \"message\": \""
                << json_escape(f.message) << "\"}";
    }
    std::cout << (findings.empty() ? "]\n" : "\n]\n");
  } else {
    for (const Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ":" << f.column << ": ["
                << f.rule << "] " << f.message << "\n";
    }
    std::cerr << "mrcp-lint: " << files.size() << " file(s), "
              << findings.size() << " finding(s)\n";
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace
}  // namespace mrcp::lint

int main(int argc, char** argv) { return mrcp::lint::run(argc, argv); }
