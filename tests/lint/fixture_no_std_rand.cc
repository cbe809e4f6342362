// mrcp-lint fixture: MUST be flagged by rule `no-std-rand` three times
// (std::rand, srand, bare rand). Mentions in comments and strings, and
// identifiers that merely end in "rand", are clean.
#include <cstdlib>

int operand(int x) { return x; }

int fixture_bad_rand() {
  std::srand(7);        // finding 1
  int a = std::rand();  // finding 2
  int b = rand();       // finding 3
  const char* text = "std::rand() in a string";
  return a + b + operand(static_cast<int>(text[0]));  // clean
}
