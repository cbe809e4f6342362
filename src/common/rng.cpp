#include "common/rng.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace mrcp {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t replication_seed(std::uint64_t base_seed, std::uint64_t rep) {
  return splitmix64(splitmix64(base_seed) ^ (0xA5A5A5A5A5A5A5A5ULL + rep));
}

RandomStream::RandomStream(std::uint64_t master_seed, std::uint64_t stream_id)
    : engine_(splitmix64(splitmix64(master_seed ^ 0xD1B54A32D192ED03ULL) +
                         stream_id)) {}

std::int64_t RandomStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  MRCP_CHECK(lo <= hi);
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

double RandomStream::uniform_real(double lo, double hi) {
  MRCP_CHECK(lo <= hi);
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

bool RandomStream::bernoulli(double p) {
  MRCP_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return std::bernoulli_distribution(p)(engine_);
}

double RandomStream::exponential(double rate) {
  MRCP_CHECK(rate > 0.0);
  return std::exponential_distribution<double>(rate)(engine_);
}

double RandomStream::lognormal(double mu, double sigma) {
  MRCP_CHECK(sigma >= 0.0);
  return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

std::string RandomStream::save_state() const {
  std::ostringstream out;
  out << engine_;
  return std::move(out).str();
}

bool RandomStream::load_state(const std::string& state) {
  std::istringstream in(state);
  std::mt19937_64 restored;  // overwritten below (lint-ok: rng-construction)
  in >> restored;
  if (in.fail()) return false;
  engine_ = restored;
  return true;
}

}  // namespace mrcp
