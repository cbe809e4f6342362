// mrcp-lint fixture: MUST be flagged by rule `no-raw-clock` four times —
// every raw wall-clock entry point the rule covers. steady_clock (what
// common/stopwatch.h wraps) is clean.
#include <sys/time.h>

#include <chrono>
#include <ctime>

long fixture_bad_clock() {
  auto a = std::time(nullptr);                                    // 1
  auto b = std::chrono::system_clock::now().time_since_epoch().count();  // 2
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);  // 3
  timeval tv{};
  gettimeofday(&tv, nullptr);  // 4
  auto c = std::chrono::steady_clock::now();  // clean
  (void)c;
  return static_cast<long>(a) + static_cast<long>(b) + ts.tv_sec + tv.tv_sec;
}
