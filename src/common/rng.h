// Reproducible random number streams.
//
// Every stochastic component (arrival process, task-size sampler, LNS
// neighbourhood picker, ...) owns its own RandomStream, derived from a
// master seed and a stream id via SplitMix64. Replication r of an
// experiment uses master seed f(base_seed, r), so replications are
// independent and each is bit-reproducible regardless of how many samples
// other components consume — a standard DES variance-reduction hygiene
// measure.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>

namespace mrcp {

/// SplitMix64 step; used to decorrelate (seed, stream) pairs before
/// feeding them into the mt19937_64 engine.
std::uint64_t splitmix64(std::uint64_t x);

/// Derive the master seed for replication `rep` of an experiment.
std::uint64_t replication_seed(std::uint64_t base_seed, std::uint64_t rep);

/// A self-contained random stream. Copyable (copies fork the state).
class RandomStream {
 public:
  RandomStream() : RandomStream(0, 0) {}
  RandomStream(std::uint64_t master_seed, std::uint64_t stream_id);

  /// Underlying engine, for use with <random> distributions.
  std::mt19937_64& engine() { return engine_; }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p in [0,1].
  bool bernoulli(double p);

  /// Exponential variate with given rate (mean 1/rate). Requires rate > 0.
  double exponential(double rate);

  /// LogNormal variate: exp(N(mu, sigma^2)).
  double lognormal(double mu, double sigma);

  /// Fisher-Yates shuffle of [first, last).
  template <typename It>
  void shuffle(It first, It last) {
    std::shuffle(first, last, engine_);
  }

  /// Serialize the engine state (mt19937_64's textual form) so a
  /// snapshot can freeze a stream mid-sequence and resume it exactly.
  std::string save_state() const;
  /// Restore a state captured by save_state(). False on malformed input
  /// (the stream is left unchanged in that case).
  bool load_state(const std::string& state);

 private:
  std::mt19937_64 engine_;  // seeded in every ctor (lint-ok: rng-construction)
};

}  // namespace mrcp
