// Run one measurement in a child process with a deadline.
//
// A simulation that never terminates cannot be interrupted from inside
// the process that runs it, so the harness measures every workload
// instance in a forked child: the child returns its results as bytes
// through a pipe, and a child that outlives its deadline is killed. The
// child is a fork of the same binary, so trivially copyable values —
// including pointers to string literals — are shipped as raw bytes.
#pragma once

#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

struct IsolatedResult {
  enum class Status { kOk, kTimedOut, kFailed };
  Status status = Status::kFailed;
  std::string bytes;   ///< what the child's work returned (kOk only)
  std::string detail;  ///< why it failed
};

/// Fork, run `work` in the child and return its bytes. The child is killed
/// (and reaped) when it has not finished after `timeout_s` seconds.
IsolatedResult run_isolated(const std::function<std::string()>& work,
                            double timeout_s);

/// Largest resident set of any child reaped so far, in MB.
double children_peak_rss_mb();

class ByteWriter {
 public:
  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(v.size());
    if (v.empty()) return;
    out_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }
  void str(const std::string& s) {
    pod(s.size());
    out_.append(s);
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads what a ByteWriter wrote; ok() turns false on a short buffer.
class ByteReader {
 public:
  explicit ByteReader(const std::string& in) : in_(in) {}

  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    if (take(sizeof v)) std::memcpy(&v, in_.data() + pos_ - sizeof v, sizeof v);
    return v;
  }
  template <class T>
  std::vector<T> vec() {
    const auto n = pod<std::size_t>();
    std::vector<T> v;
    if (!ok_ || n > (in_.size() - pos_) / sizeof(T)) {
      ok_ = false;
      return v;
    }
    if (n == 0) return v;  // memcpy must not see the empty vector's null data()
    v.resize(n);
    take(n * sizeof(T));
    std::memcpy(v.data(), in_.data() + pos_ - n * sizeof(T), n * sizeof(T));
    return v;
  }
  std::string str() {
    const auto n = pod<std::size_t>();
    if (!ok_ || !take(n)) return {};
    return in_.substr(pos_ - n, n);
  }
  bool ok_so_far() const { return ok_; }
  /// Everything read, nothing left over.
  bool ok() const { return ok_ && pos_ == in_.size(); }

 private:
  bool take(std::size_t n) {
    if (!ok_ || n > in_.size() - pos_) return ok_ = false;
    pos_ += n;
    return true;
  }
  const std::string& in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace perfbench
