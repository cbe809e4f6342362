// mrcp-lint fixture: MUST be flagged by rule `no-naked-new` three times.
// Placement new and an `operator new` declaration are not ownership-
// taking allocations and stay clean.
#include <memory>
#include <new>

struct FixtureWidget {
  int x = 0;
  static void* operator new(std::size_t size);  // clean
};

FixtureWidget* fixture_bad_alloc() {
  FixtureWidget* a = new FixtureWidget;                // finding 1
  std::unique_ptr<FixtureWidget> b(new FixtureWidget);  // finding 2
  alignas(FixtureWidget) unsigned char buf[sizeof(FixtureWidget)];
  FixtureWidget* c = new (buf) FixtureWidget;  // clean: placement new
  (void)c;
  (void)b;
  (void)a;
  return new FixtureWidget();  // finding 3
}
