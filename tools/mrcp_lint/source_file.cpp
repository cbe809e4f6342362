#include "source_file.h"

#include <fstream>
#include <sstream>

namespace mrcp::lint {
namespace {

/// Extract `lint-ok: <rule>[, <rule>...]` rule names from comment text.
void parse_lint_ok(const std::string& comment, std::set<std::string>& rules) {
  const std::string tag = "lint-ok:";
  std::size_t pos = comment.find(tag);
  while (pos != std::string::npos) {
    std::size_t i = pos + tag.size();
    // A comma-separated list of rule names follows the tag.
    while (i < comment.size()) {
      while (i < comment.size() && (comment[i] == ' ' || comment[i] == ','))
        ++i;
      std::size_t start = i;
      while (i < comment.size() &&
             (std::isalnum(static_cast<unsigned char>(comment[i])) != 0 ||
              comment[i] == '-' || comment[i] == '_'))
        ++i;
      if (i == start) break;
      rules.insert(comment.substr(start, i - start));
      if (i >= comment.size() || comment[i] != ',') break;
    }
    pos = comment.find(tag, i);
  }
}

}  // namespace

bool load_source(const std::string& path, SourceFile& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  out.path = path;
  out.lines.clear();
  out.sanitized.clear();
  out.allow.clear();

  // Single pass: classify each character as code, comment, or literal.
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string cur_line, cur_sani, cur_comment, raw_delim;
  std::set<std::string> cur_allow;
  bool pending_standalone_allow = false;
  std::set<std::string> standalone_allow;

  auto flush_line = [&]() {
    parse_lint_ok(cur_comment, cur_allow);
    // A line that is nothing but a comment pushes its allow-list onto the
    // next line as well (the standalone-comment-above convention).
    bool code_blank = true;
    for (char ch : cur_sani)
      if (ch != ' ' && ch != '\t') code_blank = false;
    std::set<std::string> line_allow = cur_allow;
    if (pending_standalone_allow)
      line_allow.insert(standalone_allow.begin(), standalone_allow.end());
    if (code_blank && !cur_allow.empty()) {
      pending_standalone_allow = true;
      standalone_allow = cur_allow;
    } else {
      pending_standalone_allow = false;
      standalone_allow.clear();
    }
    out.lines.push_back(cur_line);
    out.sanitized.push_back(cur_sani);
    out.allow.push_back(std::move(line_allow));
    cur_line.clear();
    cur_sani.clear();
    cur_comment.clear();
    cur_allow.clear();
  };

  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      flush_line();
      continue;
    }
    cur_line.push_back(c);
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          cur_sani.push_back(' ');
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          cur_sani.push_back(' ');
        } else if (c == 'R' && next == '"' &&
                   (cur_sani.empty() ||
                    (std::isalnum(static_cast<unsigned char>(
                         cur_sani.back())) == 0 &&
                     cur_sani.back() != '_'))) {
          // Raw string literal R"delim( ... )delim"
          std::size_t paren = text.find('(', i + 2);
          if (paren != std::string::npos) {
            // Built in place: GCC 12 misreports -Wrestrict on the
            // equivalent `")" + substr + "\""` concatenation.
            raw_delim.assign(1, ')');
            raw_delim.append(text, i + 2, paren - (i + 2));
            raw_delim.push_back('"');
            state = State::kRawString;
          }
          cur_sani.push_back(' ');
        } else if (c == '"') {
          state = State::kString;
          cur_sani.push_back(' ');
        } else if (c == '\'' &&
                   !(std::isdigit(static_cast<unsigned char>(
                         cur_sani.empty() ? '\0' : cur_sani.back())) != 0 &&
                     (std::isdigit(static_cast<unsigned char>(next)) != 0 ||
                      next == '\''))) {
          // Skip digit separators (1'000'000); otherwise a char literal.
          state = State::kChar;
          cur_sani.push_back(' ');
        } else {
          cur_sani.push_back(c);
        }
        break;
      case State::kLineComment:
        cur_comment.push_back(c);
        cur_sani.push_back(' ');
        break;
      case State::kBlockComment:
        cur_comment.push_back(c);
        cur_sani.push_back(' ');
        if (c == '*' && next == '/') {
          cur_sani.push_back(' ');
          cur_line.push_back(next);
          ++i;
          state = State::kCode;
        }
        break;
      case State::kString:
        cur_sani.push_back(' ');
        if (c == '\\' && next != '\0') {
          cur_sani.push_back(' ');
          cur_line.push_back(next);
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        cur_sani.push_back(' ');
        if (c == '\\' && next != '\0') {
          cur_sani.push_back(' ');
          cur_line.push_back(next);
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString:
        cur_sani.push_back(' ');
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t k = 1; k < raw_delim.size(); ++k) {
            cur_line.push_back(text[i + k]);
            cur_sani.push_back(' ');
          }
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  if (!cur_line.empty() || !cur_comment.empty()) flush_line();
  return true;
}

}  // namespace mrcp::lint
