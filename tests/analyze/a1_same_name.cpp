// aladdin-analyze fixture (A1, violating): two classes in one namespace
// each define an out-of-line Run(). The call graph matches callees by name,
// so the hot root reaches both definitions — and both allocations must be
// reported, not just the first one the walk happens to visit.
#include <memory>

#define ALADDIN_HOT  // the lex backend keys on the literal token

namespace fixture {

struct Planner {
  void Run();
};

struct Merger {
  void Run();
};

void Planner::Run() {
  auto plan = std::make_unique<int>(1);  // A101
  (void)plan;
}

void Merger::Run() {
  auto merged = std::make_unique<int>(2);  // A101
  (void)merged;
}

ALADDIN_HOT void Tick(Planner& planner, Merger& merger) {
  planner.Run();
  merger.Run();
}

}  // namespace fixture
