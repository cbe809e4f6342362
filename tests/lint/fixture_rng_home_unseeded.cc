// mrcp-lint fixture: staged as src/common/rng.cc (RandomStream's home),
// where rule `rng-construction` flags only *unseeded* engines — three
// findings: a default-constructed declarator, an empty-brace engine and
// a random_device. Seeded engines and the allow-listed line are clean.
#include <random>

unsigned fixture_unseeded_in_home(unsigned long seed) {
  std::mt19937_64 engine;                  // finding 1
  std::mt19937 other{};                    // finding 2
  std::random_device dev;                  // finding 3
  std::mt19937_64 seeded(seed);            // clean: seeded
  std::mt19937_64 braced{seed};            // clean: seeded
  std::mt19937_64 restored;  // clean (lint-ok: rng-construction)
  return static_cast<unsigned>(engine() + other() + dev() + seeded() +
                               braced() + restored());
}
