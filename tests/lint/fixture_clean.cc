// Lint fixture: MUST produce zero findings from every mrcp-lint rule —
// guards against rules that over-match. The near misses below (a mention
// of std::rand() in a comment, placement new, steady_clock, a renewed
// variable) are all legal.
#include <chrono>
#include <map>
#include <memory>
#include <new>
#include <vector>

namespace mrcp {
class Ticks {
 public:
  constexpr Ticks() = default;
  constexpr explicit Ticks(long long count) : count_(count) {}

 private:
  long long count_ = 0;
};
using Time = Ticks;
}  // namespace mrcp

int fixture_clean(const std::map<int, int>& ordered) {
  mrcp::Time zero{0};
  mrcp::Time one{1};
  (void)zero;
  (void)one;
  auto owned = std::make_unique<std::vector<int>>();
  alignas(int) unsigned char buf[sizeof(int)];
  int* placed = new (buf) int(3);
  const auto renewed = std::chrono::steady_clock::now();
  (void)renewed;
  int total = *placed;
  for (const auto& kv : ordered) total += kv.second;  // ordered: fine
  return total + static_cast<int>(owned->size());
}
