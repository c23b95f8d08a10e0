// aladdin-analyze fixture (A1, conforming): the sanctioned shapes — scratch
// rooted in a Workspace, growth inside an exempt scratch class, and
// allocations in functions the hot closure never reaches.
#include <vector>

#define ALADDIN_HOT

namespace fixture {

struct Workspace {  // exempt scratch owner (config.A1_EXEMPT_CLASSES)
  std::vector<int> dist;
  void Reset() { dist.assign(dist.size(), 0); }
};

void Relax(Workspace& ws) {
  ws.dist.assign(ws.dist.size(), -1);  // ws-rooted: workspace scratch
}

ALADDIN_HOT void Tick(Workspace& ws) {
  Relax(ws);
  ws.Reset();
}

void ColdAudit() {
  std::vector<int> copy;  // unreachable from any hot root: no diagnostic
  copy.reserve(4);
}

}  // namespace fixture
