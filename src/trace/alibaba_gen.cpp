#include "trace/alibaba_gen.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"

namespace aladdin::trace {

namespace {

// Per-container CPU request classes, in cores (fractional expressed in
// millicores). Heavily skewed toward small requests, as in production LLA
// traces; the resulting mean (~1.7 cores) reproduces the paper's regime of
// sub-50% average machine utilisation at Aladdin's machine counts (§V.D).
struct RequestClass {
  std::int64_t cpu_millis;
  double weight;
};
constexpr RequestClass kNormalRequests[] = {
    {500, 0.25}, {1000, 0.36}, {2000, 0.19},
    {4000, 0.10}, {8000, 0.07}, {16000, 0.03},
};
// High-priority LLAs "always have more instances and larger resource
// requirements" (§V.D) — their requests draw from the upper classes.
constexpr RequestClass kPriorityRequests[] = {
    {2000, 0.40}, {4000, 0.30}, {8000, 0.20}, {16000, 0.10},
};
// Request cap: 16 CPUs / 32 GB (§V.A).
constexpr std::int64_t kMaxRequestCores = 16;
constexpr std::int64_t kMaxRequestMemGib = 32;

cluster::ResourceVector DrawRequest(Rng& rng, bool high_priority,
                                    std::int64_t app_size) {
  std::vector<double> weights;
  const std::span<const RequestClass> table =
      high_priority ? std::span<const RequestClass>(kPriorityRequests)
                    : std::span<const RequestClass>(kNormalRequests);
  weights.reserve(table.size());
  for (const auto& rc : table) weights.push_back(rc.weight);
  std::int64_t cpu = table[rng.WeightedIndex(weights)].cpu_millis;
  cpu = std::min(cpu, kMaxRequestCores * 1000);
  // Per-replica size shrinks as replica count grows (big services run many
  // small replicas); this also bounds total-demand variance — one tail app
  // drawing 16-core replicas would otherwise swing cluster demand by
  // double-digit percents between seeds.
  if (app_size > 200) {
    cpu = std::min<std::int64_t>(cpu, 2000);
  } else if (app_size > 50) {
    cpu = std::min<std::int64_t>(cpu, 4000);
  } else if (app_size > 10) {
    cpu = std::min<std::int64_t>(cpu, 8000);
  }
  // Memory per core varies by workload kind — 1 GiB (compute-bound), 2 GiB
  // (balanced, the machine shape), or 4 GiB (memory-bound) — so the memory
  // dimension genuinely binds for a slice of the containers instead of
  // shadowing CPU; capped at the trace maximum.
  static constexpr std::int64_t kMemPerCoreMib[] = {1024, 2048, 4096};
  std::vector<double> mem_weights = {0.3, 0.5, 0.2};
  const std::int64_t per_core = kMemPerCoreMib[rng.WeightedIndex(mem_weights)];
  const std::int64_t mem_mib =
      std::min(cpu * per_core / 1000, kMaxRequestMemGib * 1024);
  return cluster::ResourceVector(cpu, mem_mib);
}

// Application size (container count) distribution fitted to Fig. 8(a):
// 64 % singletons; most of the rest small (Zipf over [2,49]); a thin Zipf
// tail in [50, ~2000]; giants injected separately.
constexpr double kSingleInstanceFraction = 0.64;  // Fig. 8(a)

std::int64_t DrawAppSize(Rng& rng) {
  const double u = rng.UniformDouble();
  if (u < kSingleInstanceFraction) return 1;
  // Within the non-singleton mass: ~84.7 % small, 15.3 % tail; calibrated so
  // the overall mean lands near the paper's 100k/13056 ≈ 7.7.
  if (rng.UniformDouble() < 0.847) {
    return 1 + rng.Zipf(48, 1.1);  // 2 .. 49
  }
  return 49 + rng.Zipf(1951, 1.8);  // 50 .. 2000
}

// Paper-reported population figures (§V.A, Fig. 8) at scale 1.0.
constexpr std::int64_t kApplications = 13056;
constexpr std::int64_t kTargetContainers = 100000;

std::int64_t ScaledApplications(double scale) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(
             static_cast<double>(kApplications) * scale)));
}

std::int64_t ScaledTargetContainers(double scale) {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(
             static_cast<double>(kTargetContainers) * scale)));
}

}  // namespace

cluster::Topology MakeAlibabaCluster(std::size_t machines) {
  // Homogeneous 32 CPU / 64 GB machines (§V.A).
  return cluster::Topology::Uniform(machines,
                                    cluster::ResourceVector::Cores(32, 64));
}

cluster::Topology MakeHeterogeneousCluster(std::size_t machines,
                                           std::uint64_t seed) {
  Rng rng(seed);
  cluster::Topology topo;
  constexpr std::size_t kMachinesPerRack = 40;
  constexpr std::size_t kRacksPerSubcluster = 10;
  cluster::RackId rack = cluster::RackId::Invalid();
  cluster::SubClusterId sub = cluster::SubClusterId::Invalid();
  for (std::size_t i = 0; i < machines; ++i) {
    if (i % (kMachinesPerRack * kRacksPerSubcluster) == 0) {
      sub = topo.AddSubCluster();
    }
    if (i % kMachinesPerRack == 0) rack = topo.AddRack(sub);
    // SKU mix drawn per machine but deterministic per seed: 50 % standard,
    // 30 % large, 20 % small.
    const double u = rng.UniformDouble();
    cluster::ResourceVector capacity = cluster::ResourceVector::Cores(32, 64);
    if (u >= 0.5 && u < 0.8) {
      capacity = cluster::ResourceVector::Cores(64, 128);
    } else if (u >= 0.8) {
      capacity = cluster::ResourceVector::Cores(16, 32);
    }
    topo.AddMachine(rack, capacity);
  }
  return topo;
}

Workload GenerateAlibabaLike(const AlibabaTraceOptions& options) {
  Rng rng(options.seed);
  Workload workload;

  const std::int64_t n_apps = ScaledApplications(options.scale);
  const std::int64_t target = ScaledTargetContainers(options.scale);

  // --- Pass 1: decide per-application attributes. ------------------------
  struct AppSpec {
    std::int64_t size = 1;
    cluster::Priority priority = 0;
    bool anti_within = false;
    bool giant = false;
    bool heavy_conflicter = false;
  };
  std::vector<AppSpec> specs(static_cast<std::size_t>(n_apps));

  // Giants: "a few LLAs are composed of more than 2,000 containers". Their
  // size scales with the workload so reduced replicas keep the same shape
  // (~2.0–2.6 % of all containers each).
  constexpr std::int64_t kGiantApps = 4;
  constexpr std::int64_t kGiantAppMinSize = 2000;
  constexpr std::int64_t kGiantAppMaxSize = 2600;
  const std::int64_t n_giants = std::min<std::int64_t>(
      kGiantApps, std::max<std::int64_t>(1, n_apps / 100));
  for (std::int64_t g = 0; g < n_giants; ++g) {
    auto& spec = specs[static_cast<std::size_t>(g)];
    spec.giant = true;
    const double frac =
        static_cast<double>(rng.UniformInt(kGiantAppMinSize,
                                           kGiantAppMaxSize)) /
        static_cast<double>(kTargetContainers);
    spec.size = std::max<std::int64_t>(
        2, static_cast<std::int64_t>(std::llround(
               frac * static_cast<double>(target))));
  }
  // No application may exceed ~6 % of the container total: the paper's
  // largest LLAs are ~2.6 % (2,600 of 100k), and a within-anti-affinity app
  // larger than the machine count (= target/10) would be unsatisfiable by
  // pigeonhole at reduced scales.
  const std::int64_t app_size_cap =
      std::max<std::int64_t>(10, target * 6 / 100);
  for (std::int64_t i = n_giants; i < n_apps; ++i) {
    specs[static_cast<std::size_t>(i)].size =
        std::min(app_size_cap, DrawAppSize(rng));
  }

  // Calibrate the container total to the (scaled) target within ±2 % so the
  // demand-to-cluster ratio is stable across scales and seeds: trim or grow
  // the multi-container tail (never singletons, never giants — both of
  // those are distributional facts the paper states explicitly).
  {
    auto total = [&specs] {
      std::int64_t sum = 0;
      for (const auto& s : specs) sum += s.size;
      return sum;
    };
    std::vector<std::size_t> multi;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!specs[i].giant && specs[i].size > 1) multi.push_back(i);
    }
    std::sort(multi.begin(), multi.end(), [&](std::size_t a, std::size_t b) {
      return specs[a].size > specs[b].size;
    });
    std::int64_t current = total();
    const std::int64_t tolerance = std::max<std::int64_t>(1, target / 50);
    // Trim the largest tail apps first (proportionally, keeping them large).
    for (std::size_t k = 0; !multi.empty() && current > target + tolerance;
         k = (k + 1) % multi.size()) {
      auto& size = specs[multi[k]].size;
      const std::int64_t cut =
          std::min(current - target, std::max<std::int64_t>(1, size / 8));
      if (size - cut < 2) continue;
      size -= cut;
      current -= cut;
    }
    // Grow the tail round-robin when short, staying below the size cap.
    for (std::size_t k = 0, stuck = 0;
         !multi.empty() && current < target - tolerance &&
         stuck < multi.size();
         k = (k + 1) % multi.size()) {
      auto& size = specs[multi[k]].size;
      if (size >= app_size_cap) {
        ++stuck;
        continue;
      }
      stuck = 0;
      const std::int64_t add = std::min<std::int64_t>(
          {target - current, std::max<std::int64_t>(1, size / 8),
           app_size_cap - size});
      size += add;
      current += add;
    }
  }

  // Priority apps (Fig. 8b: 2,088 / 13,056). Giants lead the list — large
  // high-priority LLAs are exactly the paper's hard cases.
  constexpr double kPriorityFraction = 2088.0 / 13056.0;
  const auto n_priority = static_cast<std::int64_t>(std::llround(
      kPriorityFraction * static_cast<double>(n_apps)));
  {
    std::int64_t assigned = 0;
    for (auto& spec : specs) {
      if (assigned >= n_priority) break;
      if (spec.giant) {
        spec.priority = 3;
        ++assigned;
      }
    }
    // Remaining priority slots: random apps, classes 1..3 skewed low.
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].priority == 0) candidates.push_back(i);
    }
    rng.Shuffle(candidates);
    for (std::size_t i = 0; i < candidates.size() && assigned < n_priority;
         ++i, ++assigned) {
      const double u = rng.UniformDouble();
      specs[candidates[i]].priority = u < 0.70 ? 1 : (u < 0.90 ? 2 : 3);
    }
  }

  // Anti-affinity apps (Fig. 8b: 9,400 / 13,056): within-application
  // spreading. Giants and priority apps are preferentially included.
  constexpr double kAntiAffinityFraction = 9400.0 / 13056.0;
  const auto n_anti = static_cast<std::int64_t>(std::llround(
      kAntiAffinityFraction * static_cast<double>(n_apps)));
  {
    std::vector<std::size_t> order(specs.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(order);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       const int ka = (specs[a].giant ? 2 : 0) +
                                      (specs[a].priority > 0 ? 1 : 0);
                       const int kb = (specs[b].giant ? 2 : 0) +
                                      (specs[b].priority > 0 ? 1 : 0);
                       return ka > kb;
                     });
    for (std::int64_t i = 0; i < n_anti && i < n_apps; ++i) {
      specs[order[static_cast<std::size_t>(i)]].anti_within = true;
    }
  }

  // Heavy conflicters: high-priority, large-request apps that may not
  // co-locate with a large container mass (> 5,000 at scale 1.0).
  const std::int64_t n_heavy =
      std::min<std::int64_t>(kHeavyConflicters, n_giants);
  for (std::int64_t g = 0; g < n_heavy; ++g) {
    specs[static_cast<std::size_t>(g)].heavy_conflicter = true;
  }

  // --- Pass 2: draw requests, calibrate demand, materialise. -------------
  std::vector<cluster::ResourceVector> requests(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    requests[i] = DrawRequest(rng, specs[i].priority > 0, specs[i].size);
  }
  // Calibrate total CPU demand to kTargetUtilization of the matching
  // cluster (machines = target/10 at 32 cores each): nudge the biggest
  // contributors down / the smallest up one power-of-two class at a time.
  // Keeps the demand-to-capacity ratio stable across scales and seeds so
  // the comparative experiments probe constraint handling, not sampling
  // luck: without it, one large app's request draw swings the ratio enough
  // to flip experiments between trivial and infeasible across seeds.
  {
    constexpr double kTargetUtilization = 0.76;
    const double capacity_millis = static_cast<double>(target) * 3200.0;
    const auto target_demand = static_cast<std::int64_t>(
        kTargetUtilization * capacity_millis);
    auto demand = [&] {
      std::int64_t sum = 0;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        sum += specs[i].size * requests[i].cpu_millis();
      }
      return sum;
    };
    auto set_cpu = [&](std::size_t i, std::int64_t cpu) {
      const std::int64_t mem =
          std::min(cpu * 2048 / 1000, kMaxRequestMemGib * 1024);
      requests[i] = cluster::ResourceVector(cpu, mem);
    };
    std::int64_t current = demand();
    for (int guard = 0; guard < 4096; ++guard) {
      if (current > target_demand * 103 / 100) {
        // Shrink the largest contributor whose request can still halve.
        std::size_t best = specs.size();
        std::int64_t best_score = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          if (requests[i].cpu_millis() <= 500) continue;
          const std::int64_t score = specs[i].size * requests[i].cpu_millis();
          if (score > best_score) {
            best_score = score;
            best = i;
          }
        }
        if (best == specs.size()) break;
        current -= specs[best].size * requests[best].cpu_millis() / 2;
        set_cpu(best, requests[best].cpu_millis() / 2);
      } else if (current < target_demand * 97 / 100) {
        // Grow the largest contributor that can still double (fewer, larger
        // nudges converge fast and keep the distribution shape).
        std::size_t best = specs.size();
        std::int64_t best_score = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const std::int64_t cpu = requests[i].cpu_millis();
          if (cpu * 2 > kMaxRequestCores * 1000) continue;
          if (specs[i].size > 10) continue;  // keep the big-app caps intact
          const std::int64_t score = specs[i].size * cpu;
          if (score > best_score) {
            best_score = score;
            best = i;
          }
        }
        if (best == specs.size()) break;
        current += specs[best].size * requests[best].cpu_millis();
        set_cpu(best, requests[best].cpu_millis() * 2);
      } else {
        break;
      }
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    workload.AddApplication("lla-" + std::to_string(i),
                            static_cast<std::size_t>(specs[i].size),
                            requests[i], specs[i].priority,
                            specs[i].anti_within);
  }

  // --- Pass 3: cross-application rules. ----------------------------------
  const auto& apps = workload.applications();
  // Cumulative container counts so cross-rule partners can be drawn
  // proportionally to application size — performance interference in the
  // trace concentrates on big LLAs, which is what makes the constraints
  // bind (several apps conflict with thousands of containers, §V.A).
  std::vector<std::int64_t> cumulative(specs.size() + 1, 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    cumulative[i + 1] = cumulative[i] + specs[i].size;
  }
  auto draw_partner = [&]() {
    const std::int64_t pick = rng.UniformInt(0, cumulative.back() - 1);
    const auto it =
        std::upper_bound(cumulative.begin(), cumulative.end(), pick);
    return static_cast<std::size_t>(it - cumulative.begin()) - 1;
  };

  // Cross-app anti-affinity over a slice of the AA apps (performance-
  // interference pairs, §II.A). Partners are size-weighted, so conflict
  // mass concentrates on big LLAs as in the trace.
  constexpr double kCrossAppRuleFraction = 0.25;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!specs[i].anti_within || specs[i].giant) continue;
    if (!rng.Bernoulli(kCrossAppRuleFraction)) continue;
    const std::int64_t rules = rng.UniformInt(1, 3);
    for (std::int64_t r = 0; r < rules; ++r) {
      const std::size_t other = draw_partner();
      if (other == i) continue;
      workload.AddAntiAffinity(apps[i].id, apps[other].id);
    }
  }
  // Heavy conflicters accumulate cross-app rules until the conflicting
  // container mass passes the (scaled) threshold.
  const auto conflict_target = static_cast<std::int64_t>(std::llround(
      static_cast<double>(kHeavyConflictContainers) * options.scale));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!specs[i].heavy_conflicter) continue;
    // "cannot be co-located with at least other 5,000 containers" — the
    // target counts *other* apps' containers, not the app's own replicas.
    auto cross_mass = [&]() {
      std::int64_t mass = workload.constraints().ConflictingContainerCount(
          apps[i].id, apps);
      if (workload.constraints().HasWithinAntiAffinity(apps[i].id)) {
        mass -= static_cast<std::int64_t>(apps[i].containers.size()) - 1;
      }
      return mass;
    };
    std::int64_t guard = 0;
    while (cross_mass() < conflict_target &&
           guard++ < static_cast<std::int64_t>(specs.size()) * 4) {
      const std::size_t other = draw_partner();
      if (other == i || specs[other].giant) continue;
      workload.AddAntiAffinity(apps[i].id, apps[other].id);
    }
  }

  if (options.cpu_only) workload.ProjectCpuOnly();

  LOG_DEBUG << "generated Alibaba-like workload: "
            << workload.application_count() << " apps, "
            << workload.container_count() << " containers (target " << target
            << ")";
  return workload;
}

}  // namespace aladdin::trace
