// Multidimensional resource arithmetic.
//
// Resources are exact integers: CPU in millicores, memory in MiB. The paper
// evaluates CPU-only "to compare Aladdin with Firmament fairly" (§V.A) but
// discusses arbitrary dimension counts c in its complexity analysis (§IV.D);
// all code here is dimension-generic over kResourceDims.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace aladdin::cluster {

inline constexpr std::size_t kResourceDims = 2;

class ResourceVector {
 public:
  constexpr ResourceVector() : v_{} {}
  constexpr ResourceVector(std::int64_t cpu_millis, std::int64_t mem_mib)
      : v_{cpu_millis, mem_mib} {}

  // Whole cores / whole GiB convenience constructors.
  static constexpr ResourceVector Cores(std::int64_t cores,
                                        std::int64_t mem_gib = 0) {
    return ResourceVector(cores * 1000, mem_gib * 1024);
  }
  static constexpr ResourceVector Zero() { return ResourceVector(); }

  [[nodiscard]] constexpr std::int64_t cpu_millis() const { return v_[0]; }
  [[nodiscard]] constexpr std::int64_t mem_mib() const { return v_[1]; }
  [[nodiscard]] constexpr std::int64_t dim(std::size_t i) const { return v_[i]; }
  void set_dim(std::size_t i, std::int64_t value) { v_[i] = value; }

  // this <= other in every dimension: "the resource requirement of container
  // T_i is less than the resource provisioning of machine N_j" (Eq. 6).
  [[nodiscard]] constexpr bool FitsIn(const ResourceVector& other) const {
    for (std::size_t i = 0; i < kResourceDims; ++i) {
      if (v_[i] > other.v_[i]) return false;
    }
    return true;
  }

  [[nodiscard]] constexpr bool IsZero() const {
    for (std::size_t i = 0; i < kResourceDims; ++i) {
      if (v_[i] != 0) return false;
    }
    return true;
  }

  // Any component negative (used to detect over-commit bugs).
  [[nodiscard]] constexpr bool AnyNegative() const {
    for (std::size_t i = 0; i < kResourceDims; ++i) {
      if (v_[i] < 0) return true;
    }
    return false;
  }

  ResourceVector& operator+=(const ResourceVector& o);
  ResourceVector& operator-=(const ResourceVector& o);
  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) {
    return a += b;
  }
  friend ResourceVector operator-(ResourceVector a, const ResourceVector& b) {
    return a -= b;
  }
  friend constexpr bool operator==(const ResourceVector& a,
                                   const ResourceVector& b) {
    return a.v_ == b.v_;
  }

  // Largest utilisation fraction across dimensions relative to `capacity`
  // (a.k.a. dominant share). Dimensions with zero capacity are skipped, which
  // is how CPU-only mode ignores memory.
  [[nodiscard]] double DominantShareOf(const ResourceVector& capacity) const;

  // Zeroes every dimension except CPU; the evaluation's CPU-only mode.
  [[nodiscard]] ResourceVector CpuOnly() const {
    return ResourceVector(v_[0], 0);
  }

  [[nodiscard]] std::string ToString() const;

 private:
  std::array<std::int64_t, kResourceDims> v_;
};

// Componentwise max/min, used by packing heuristics.
ResourceVector Max(const ResourceVector& a, const ResourceVector& b);
ResourceVector Min(const ResourceVector& a, const ResourceVector& b);

}  // namespace aladdin::cluster
