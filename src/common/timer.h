// Wall-clock timing helpers for latency metrics (Fig. 12 / Fig. 13a).
#pragma once

#include <chrono>

namespace aladdin {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  [[nodiscard]] double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  [[nodiscard]] double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace aladdin
