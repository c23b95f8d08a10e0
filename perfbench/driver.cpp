// Whole-tick online benchmark driver.
//
// Runs the online stack (k8s::ClusterSimulator -> events -> ModelAdaptor ->
// Resolver -> core) tick by tick as a closed loop with one client: this
// thread submits a tick's wave of pods, calls Tick(), and only then builds
// the next wave. The driver generates every pod itself: long-lived
// applications from trace::GenerateAlibabaLike (memory dimension kept) plus
// short-lived batch jobs drawn from --seed, fed only through the public
// submit/delete calls. Every
// deployment (and every batch job) is deleted a fixed number of ticks
// after it was submitted, so the live set — and the tick cost — stays flat
// over a long run.
//
//   perfbench_driver --workload steady --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics with observability switched off;
// --trace 1 arms the obs metrics registry and prints the per-layer
// breakdown. The last stdout line is one JSON object; any failed
// correctness check exits 1 before printing it. perfbench/README.md lists
// every metric and the end-to-end metric each layer metric should move.
#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/audit.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/timer.h"
#include "k8s/simulator.h"
#include "obs/metrics.h"
#include "trace/alibaba_gen.h"

using namespace aladdin;

namespace {

// One benchmark workload. The long-lived set is one generated trace
// (`lla_scale` of the paper's, whose CPU demand the generator pins at 76%
// of a scale-matched cluster), replayed in `retire_ticks` waves: each wave
// is deleted `retire_ticks` ticks after it was submitted, when the same
// applications are submitted again, so the whole trace is live at once.
//
// The trace and its wave order are fixed per workload (kTraceSeed), as the
// paper replays one trace snapshot; --seed draws the batch stream. Near
// saturation the placements are chaotic in the long-lived order: with the
// order drawn from --seed, `saturated` tick p50 ranged 28-70 ms over four
// seeds, which no regression bound could absorb.
struct Config {
  const char* name;
  std::size_t machines;
  int shards;                   // 0 = unsharded solver
  double lla_scale;             // Alibaba-like pool, 1.0 = 13k apps / 100k
  int retire_ticks;             // deployment lifetime, in ticks
  std::size_t batch_tasks;      // short-lived pods submitted per tick
  std::int64_t batch_lifetime;  // ticks a bound batch pod runs
};

constexpr std::uint64_t kTraceSeed = 7;
// Solver / shard-pool threads every workload pins (the machine's nproc).
constexpr int kThreads = 4;
// Batch jobs submitted per tick; their tasks split `batch_tasks`.
constexpr std::size_t kBatchJobs = 4;
// Set-ups timed per untraced run; setup_s is their median.
constexpr int kSetups = 3;
// Timed ticks whose pods feed placed_pct, undisrupted_pct and the SLO.
constexpr int kQualityTicks = 16;
// Timed ticks before the determinism fingerprint.
constexpr int kCheckTicks = 8;

constexpr Config kConfigs[] = {
    // Paper scale (10k machines): long-lived CPU demand ~46% of the cluster
    // plus a heavy batch share (~22%); every pod fits.
    {"steady", 10000, 0, 0.6, 16, 8000, 6},
    // 100 machines with ~95% long-lived CPU demand (memory binds first):
    // past saturation, repair migrates and preempts every tick and a
    // backlog of ~500 pods plateaus. Larger clusters at the same ratio hit
    // the repair cliff (seconds per tick), too slow to repeat.
    {"saturated", 100, 0, 0.0125, 4, 50, 3},
    // The steady mix at twice the size, 4 shards on 4 threads.
    {"sharded", 20000, 4, 1.2, 16, 16000, 6},
};

const Config* FindConfig(std::string_view name) {
  for (const Config& c : kConfigs) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

// --- inputs --------------------------------------------------------------

struct PoolApp {
  std::string name;
  std::size_t replicas = 0;
  k8s::PodSpec spec;
};

struct Pool {
  std::vector<PoolApp> apps;
  // waves[w] lists the apps submitted on ticks t with t % waves.size() == w.
  std::vector<std::vector<std::size_t>> waves;
  std::size_t containers = 0;
};

Pool BuildPool(const Config& cfg) {
  trace::AlibabaTraceOptions options;
  options.scale = cfg.lla_scale;
  options.seed = kTraceSeed;
  options.cpu_only = false;
  const trace::Workload workload = trace::GenerateAlibabaLike(options);

  Pool pool;
  pool.apps.reserve(workload.application_count());
  for (const cluster::Application& app : workload.applications()) {
    PoolApp p;
    p.name = "lla-" + std::to_string(app.id.value());
    p.replicas = app.size();
    p.spec.requests = app.request;
    p.spec.priority = app.priority;
    p.spec.anti_affinity_within = app.anti_affinity_within;
    pool.containers += p.replicas;
    pool.apps.push_back(std::move(p));
  }
  // Rules are symmetric; naming the partner on one side is enough.
  for (const cluster::AntiAffinityRule& rule : workload.constraints().rules()) {
    if (rule.a == rule.b) continue;
    PoolApp& a = pool.apps[static_cast<std::size_t>(rule.a.value())];
    a.spec.anti_affinity_apps.push_back(
        pool.apps[static_cast<std::size_t>(rule.b.value())].name);
  }

  // Deal the applications, largest first, to whichever wave has the fewest
  // containers so far: every wave gets a like mix of app sizes, so tick
  // costs cluster around one value instead of one per wave.
  std::vector<std::size_t> order(pool.apps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&pool](std::size_t a, std::size_t b) {
                     return pool.apps[a].replicas > pool.apps[b].replicas;
                   });
  pool.waves.assign(static_cast<std::size_t>(cfg.retire_ticks), {});
  std::vector<std::size_t> load(pool.waves.size(), 0);
  for (std::size_t i : order) {
    const auto wave = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    pool.waves[wave].push_back(i);
    load[wave] += pool.apps[i].replicas;
  }
  return pool;
}

// --- measurement helpers ---------------------------------------------------

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

// A "VmRSS:" / "VmHWM:" line of /proc/self/status, in MB.
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// Highest percentile with enough independent samples beyond it: walk the
// samples from the largest down until the beyond-set spans `min_groups`
// distinct groups; the tail is the largest sample not in that set.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

Tail TailOf(const std::vector<std::pair<double, std::int64_t>>& samples,
            std::size_t min_groups) {
  Tail tail;
  tail.samples = samples.size();
  std::vector<std::pair<double, std::int64_t>> v = samples;
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  std::vector<std::int64_t> groups;
  std::size_t beyond = 0;
  while (beyond < v.size() && groups.size() < min_groups) {
    const std::int64_t g = v[beyond].second;
    if (std::find(groups.begin(), groups.end(), g) == groups.end()) {
      groups.push_back(g);
    }
    ++beyond;
  }
  if (groups.size() < min_groups || beyond >= v.size()) return tail;
  tail.value = v[beyond].first;
  tail.percentile = 100.0 * static_cast<double>(v.size() - beyond) /
                    static_cast<double>(v.size());
  return tail;
}

// FNV-1a over the uid-sorted (uid, node) pairs of every bound pod.
std::uint64_t Fingerprint(k8s::ModelAdaptor& adaptor) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (k8s::PodUid uid : adaptor.BoundPods()) {
    const k8s::Pod* pod = adaptor.FindPod(uid);
    mix(&uid, sizeof uid);
    mix(pod->node.data(), pod->node.size());
  }
  return h;
}

// --- one simulated cluster ----------------------------------------------------

struct TickSample {
  std::int64_t tick = 0;
  bool traced = false;     // obs armed for this tick
  double submit_ms = 0.0;  // driver span around the submit/delete calls
  double tick_ms = 0.0;    // driver span around Tick()
  double wall_ms = 0.0;    // submit + Tick
  double cpu_ms = 0.0;     // process CPU during Tick()
  std::size_t events = 0;  // submit + delete calls
  std::size_t first_binds = 0;
  k8s::ResolveStats stats;
  double rss_mb = 0.0;
  std::size_t pod_store = 0;
  std::size_t containers = 0;
};

class Cluster {
 public:
  Cluster(const Config& cfg, const Pool& pool, int threads,
          std::uint64_t seed)
      : cfg_(cfg), pool_(pool), rng_(seed) {
    k8s::ResolverOptions options;
    options.aladdin = k8s::Resolver::DefaultOptions();
    options.aladdin.threads = threads;
    options.shards = cfg.shards;
    sim_ = std::make_unique<k8s::ClusterSimulator>(options);
  }

  // Provisioning, the first topology/state/network build and the warm-up
  // ticks that fill the cluster to its plateau.
  double Setup() {
    WallTimer timer;
    sim_->AddNodes(cfg_.machines, cluster::ResourceVector::Cores(32, 64));
    const std::int64_t warmup = cfg_.retire_ticks + cfg_.batch_lifetime;
    for (std::int64_t i = 0; i < warmup; ++i) Step();
    return timer.ElapsedSeconds();
  }

  // Starts the measured window: pods submitted from now on are timed, and
  // those of the first kQualityTicks ticks feed the placement-quality ledger.
  void StartWindow() {
    timed_ = true;
    quality_end_ = sim_->now() + kQualityTicks;
  }

  TickSample Step() {
    TickSample s;
    s.tick = sim_->now() + 1;
    const bool quality = timed_ && s.tick <= quality_end_;

    // Deployments due for retirement: every pod still in the store.
    deletes_.clear();
    while (!live_.empty() &&
           live_.front().tick + cfg_.retire_ticks <= s.tick) {
      Submission& sub = live_.front();
      for (std::size_t i = 0; i < sub.count; ++i) {
        const k8s::PodUid uid = sub.first_uid + static_cast<k8s::PodUid>(i);
        if (sim_->adaptor().FindPod(uid) != nullptr) deletes_.push_back(uid);
      }
      if (sub.quality) {
        quality_submitted_ += sub.count;
        quality_failed_ += sub.count - sub.bound_count;
      }
      live_.pop_front();
    }
    const std::vector<std::size_t>& wave =
        pool_.waves[static_cast<std::size_t>(s.tick) % pool_.waves.size()];
    // Batch jobs of 1- or 2-core tasks (2 GiB per core), drawn per job.
    batch_cores_.clear();
    for (std::size_t j = 0; j < kBatchJobs; ++j) {
      batch_cores_.push_back(rng_.UniformInt(1, 2));
    }

    // The wave: retirements, the long-lived deployments, the batch jobs.
    WallTimer submit_timer;
    for (k8s::PodUid uid : deletes_) sim_->DeletePod(uid);
    for (std::size_t a : wave) {
      const PoolApp& app = pool_.apps[a];
      Record(sim_->SubmitDeployment(app.name, app.replicas, app.spec),
             s.tick, quality);
    }
    for (std::size_t j = 0; j < kBatchJobs; ++j) {
      const std::int64_t cores = batch_cores_[j];
      Record(sim_->SubmitBatchJob(
                 "batch-" + std::to_string(s.tick) + "-" + std::to_string(j),
                 (cfg_.batch_tasks + j) / kBatchJobs,
                 cluster::ResourceVector::Cores(cores, 2 * cores),
                 cfg_.batch_lifetime),
             s.tick, quality);
    }
    s.submit_ms = submit_timer.ElapsedMillis();

    bindings_.clear();
    const double cpu_before = ProcessCpuMs();
    WallTimer tick_timer;
    s.stats = sim_->Tick(&bindings_);
    s.tick_ms = tick_timer.ElapsedMillis();
    s.cpu_ms = ProcessCpuMs() - cpu_before;
    s.wall_ms = s.submit_ms + s.tick_ms;
    s.events = deletes_.size();
    for (std::size_t a : wave) s.events += pool_.apps[a].replicas;
    s.events += cfg_.batch_tasks;

    // Bind latency: from the start of the pod's wave to the end of the
    // tick that first bound it, on the clock of timed ticks only.
    for (auto it = live_.rbegin(); it != live_.rend() && it->tick == s.tick;
         ++it) {
      it->clock_start = clock_ms_;
    }
    if (timed_) clock_ms_ += s.wall_ms;
    for (const k8s::Binding& b : bindings_) {
      Submission* sub = Find(b.pod);
      if (sub == nullptr) continue;
      char& bound = sub->bound[static_cast<std::size_t>(b.pod - sub->first_uid)];
      if (bound != 0) continue;  // a migration of a bound pod
      bound = 1;
      ++sub->bound_count;
      ++s.first_binds;
      if (timed_ && sub->timed) {
        bind_latency_.emplace_back(clock_ms_ - sub->clock_start, s.tick);
      }
    }
    return s;
  }

  // Counters the samples alone do not carry.
  void Sample(TickSample& s) {
    s.rss_mb = ProcStatusMb("VmRSS:");
    s.pod_store = sim_->adaptor().pod_count();
    s.containers = sim_->adaptor().workload().container_count();
  }

  [[nodiscard]] k8s::ClusterSimulator& sim() { return *sim_; }
  [[nodiscard]] std::size_t quality_submitted() const {
    return quality_submitted_;
  }
  [[nodiscard]] std::size_t quality_failed() const { return quality_failed_; }
  [[nodiscard]] const std::vector<std::pair<double, std::int64_t>>&
  bind_latency() const {
    return bind_latency_;
  }

 private:
  struct Submission {
    std::int64_t tick = 0;
    k8s::PodUid first_uid = 0;
    std::size_t count = 0;
    std::size_t bound_count = 0;
    std::vector<char> bound;
    bool timed = false;
    bool quality = false;
    double clock_start = 0.0;
  };

  // Uids of one submit call are consecutive, and submissions are appended
  // in uid order.
  void Record(const std::vector<k8s::PodUid>& uids, std::int64_t tick,
              bool quality) {
    if (uids.empty()) return;
    Submission sub;
    sub.tick = tick;
    sub.first_uid = uids.front();
    sub.count = uids.size();
    sub.bound.assign(uids.size(), 0);
    sub.timed = timed_;
    sub.quality = quality;
    live_.push_back(std::move(sub));
  }

  Submission* Find(k8s::PodUid uid) {
    auto it = std::upper_bound(
        live_.begin(), live_.end(), uid,
        [](k8s::PodUid u, const Submission& s) { return u < s.first_uid; });
    if (it == live_.begin()) return nullptr;
    --it;
    return uid < it->first_uid + static_cast<k8s::PodUid>(it->count) ? &*it
                                                                     : nullptr;
  }

  const Config& cfg_;
  const Pool& pool_;
  Rng rng_;
  std::unique_ptr<k8s::ClusterSimulator> sim_;
  std::deque<Submission> live_;
  std::vector<k8s::PodUid> deletes_;
  std::vector<std::int64_t> batch_cores_;
  std::vector<k8s::Binding> bindings_;
  bool timed_ = false;
  std::int64_t quality_end_ = 0;
  double clock_ms_ = 0.0;
  std::size_t quality_submitted_ = 0;
  std::size_t quality_failed_ = 0;
  std::vector<std::pair<double, std::int64_t>> bind_latency_;
};

// --- correctness gate ------------------------------------------------------------

struct AuditResult {
  bool ok = false;
  std::size_t placed = 0;
  std::size_t bound = 0;
  std::size_t violations = 0;
  double ms = 0.0;
};

// Audits the bound pods independently of the resolver's own state: a fresh
// workload holds one container per bound pod (so containers of retired pods,
// which the workload table keeps forever, do not count as unplaced), with
// every anti-affinity rule between the applications that still run.
AuditResult AuditFinal(k8s::ModelAdaptor& adaptor) {
  AuditResult r;
  WallTimer timer;
  const trace::Workload& full = adaptor.workload();
  const std::vector<k8s::PodUid> bound = adaptor.BoundPods();
  r.bound = bound.size();
  std::vector<cluster::ContainerId> containers;
  containers.reserve(bound.size());
  std::vector<std::size_t> live_count(full.application_count(), 0);
  for (k8s::PodUid uid : bound) {
    const cluster::ContainerId c = adaptor.ContainerOf(uid);
    if (!c.valid()) {
      LOG_ERROR << "audit: bound pod " << uid << " has no container";
      return r;
    }
    containers.push_back(c);
    ++live_count[static_cast<std::size_t>(full.container(c).app.value())];
  }
  trace::Workload live;
  std::vector<cluster::ApplicationId> live_app(
      full.application_count(), cluster::ApplicationId::Invalid());
  for (const cluster::Application& app : full.applications()) {
    const std::size_t n = live_count[static_cast<std::size_t>(app.id.value())];
    if (n == 0) continue;
    live_app[static_cast<std::size_t>(app.id.value())] = live.AddApplication(
        app.name, n, app.request, app.priority, app.anti_affinity_within);
  }
  for (const cluster::AntiAffinityRule& rule : full.constraints().rules()) {
    const cluster::ApplicationId a =
        live_app[static_cast<std::size_t>(rule.a.value())];
    const cluster::ApplicationId b =
        live_app[static_cast<std::size_t>(rule.b.value())];
    if (rule.a != rule.b && a.valid() && b.valid()) live.AddAntiAffinity(a, b);
  }

  cluster::ClusterState state = live.MakeState(adaptor.topology());
  std::vector<std::size_t> next(full.application_count(), 0);
  for (std::size_t i = 0; i < bound.size(); ++i) {
    const auto app =
        static_cast<std::size_t>(full.container(containers[i]).app.value());
    const cluster::ContainerId c =
        live.application(live_app[app]).containers[next[app]++];
    const cluster::MachineId m =
        adaptor.MachineOf(adaptor.FindPod(bound[i])->node);
    if (!m.valid() || !state.Fits(c, m)) {
      LOG_ERROR << "audit: pod " << bound[i] << " does not fit its node";
      return r;
    }
    state.Deploy(c, m);
  }
  const bool invariant = state.VerifyResourceInvariant();
  const cluster::AuditReport report = cluster::Audit(state);
  r.ms = timer.ElapsedMillis();
  r.placed = report.placed;
  r.violations = report.colocation_violations;
  r.ok = invariant && r.violations == 0 && r.placed == r.bound &&
         report.unplaced == 0;
  return r;
}

// --- reporting -------------------------------------------------------------------

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
    std::printf("  %-34s %14.4f %s\n", name.c_str(), value, unit);
  }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

struct Window {
  std::vector<obs::PhaseDelta> phases;
  std::map<std::string, std::int64_t> counters;
};

std::map<std::string, std::int64_t> CounterValues() {
  std::map<std::string, std::int64_t> out;
  for (const auto& c : obs::Registry::Get().Snapshot().counters) {
    out[c.name] = c.value;
  }
  return out;
}

Window Diff(const std::vector<obs::PhaseDelta>& phases_before,
            const std::map<std::string, std::int64_t>& counters_before) {
  Window w;
  w.phases = obs::DiffPhases(phases_before, obs::CapturePhases());
  for (const auto& [name, value] : CounterValues()) {
    const auto it = counters_before.find(name);
    w.counters[name] = value - (it == counters_before.end() ? 0 : it->second);
  }
  return w;
}

void Accumulate(Window& into, const Window& more) {
  obs::MergePhaseDeltas(into.phases, more.phases);
  for (const auto& [name, value] : more.counters) into.counters[name] += value;
}

double PhaseMs(const Window& w, std::string_view name) {
  for (const obs::PhaseDelta& d : w.phases) {
    if (d.name == name) return static_cast<double>(d.ns) * 1e-6;
  }
  return 0.0;
}

double PhaseCalls(const Window& w, std::string_view name) {
  for (const obs::PhaseDelta& d : w.phases) {
    if (d.name == name) return static_cast<double>(d.calls);
  }
  return 0.0;
}

double Count(const Window& w, const std::string& name) {
  const auto it = w.counters.find(name);
  return it == w.counters.end() ? 0.0 : static_cast<double>(it->second);
}

double Slope(const std::vector<TickSample>& samples) {
  const double n = static_cast<double>(samples.size());
  if (n < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const TickSample& s : samples) {
    const auto x = static_cast<double>(s.tick);
    sx += x;
    sy += s.rss_mb;
    sxx += x * x;
    sxy += x * s.rss_mb;
  }
  const double den = n * sxx - sx * sx;
  return den != 0.0 ? (n * sxy - sx * sy) / den : 0.0;
}

int Fail(const char* what) {
  LOG_ERROR << "perfbench: correctness check failed: " << what;
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int traced = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      traced = std::atoi(value);
    } else {
      LOG_ERROR << "unknown flag " << flag;
      return 2;
    }
  }
  const Config* cfg_ptr = FindConfig(workload_name);
  if (cfg_ptr == nullptr || (argc - 1) % 2 != 0 || seconds <= 0.0) {
    LOG_ERROR << "usage: perfbench_driver --workload steady|saturated|"
                 "sharded --seed N --seconds S --trace 0|1";
    return 2;
  }
  const Config& cfg = *cfg_ptr;
  SetLogLevel(LogLevel::kWarn);  // saturated logs every unschedulable tick
  obs::SetMetricsEnabled(traced != 0);

  WallTimer gen_timer;
  const Pool pool = BuildPool(cfg);
  const double gen_ms = gen_timer.ElapsedMillis();
  std::printf("workload %s: %zu machines, %zu shards, %d threads, %zu LLA "
              "apps / %zu containers in %zu waves, %zu batch pods/tick, "
              "seed %" PRIu64 "\n",
              cfg.name, cfg.machines, static_cast<std::size_t>(cfg.shards),
              kThreads, pool.apps.size(), pool.containers,
              pool.waves.size(), cfg.batch_tasks, seed);

  // Set-up, timed several times; the last cluster is the measured one.
  // The traced run sets up once: it reports no setup_s.
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  std::vector<obs::PhaseDelta> phases_at_start;
  std::map<std::string, std::int64_t> counters_at_start;
  for (int i = 0; i < (traced != 0 ? 1 : kSetups); ++i) {
    cluster.reset();
    phases_at_start = obs::CapturePhases();
    counters_at_start = CounterValues();
    cluster = std::make_unique<Cluster>(cfg, pool, kThreads, seed);
    setup_s.push_back(cluster->Setup());
  }
  const Window setup_window = Diff(phases_at_start, counters_at_start);

  // The measured window: at least long enough that every pod of the
  // quality window has been bound or retired.
  const int min_ticks = kQualityTicks + cfg.retire_ticks;
  const std::int64_t first_tick = cluster->sim().now() + 1;
  cluster->StartWindow();
  Window window;
  std::vector<TickSample> samples;
  std::uint64_t fingerprint = 0;
  double slo_pct = 0.0;
  double peak_rss_mb = 0.0;
  double measured_s = 0.0;
  WallTimer window_timer;
  while (static_cast<int>(samples.size()) < min_ticks ||
         window_timer.ElapsedSeconds() < seconds) {
    // A traced run arms obs on every other tick, alternating the waves
    // between cycles: the untraced ticks give the tracing overhead.
    const std::int64_t tick = cluster->sim().now() + 1;
    const bool arm =
        traced != 0 && (tick + tick / cfg.retire_ticks) % 2 == 0;
    obs::SetMetricsEnabled(arm);
    std::vector<obs::PhaseDelta> phases_before;
    std::map<std::string, std::int64_t> counters_before;
    if (arm) {
      phases_before = obs::CapturePhases();
      counters_before = CounterValues();
    }
    TickSample s = cluster->Step();
    if (arm) Accumulate(window, Diff(phases_before, counters_before));
    s.traced = arm;
    cluster->Sample(s);
    measured_s += s.wall_ms * 1e-3;
    if (s.tick == first_tick + kCheckTicks - 1) {
      fingerprint = Fingerprint(cluster->sim().adaptor());
    }
    if (s.tick == first_tick + min_ticks - 1) {
      // Memory grows with the run's history (ROADMAP item 4), so the peak
      // is read at a fixed tick: the same work on every run.
      slo_pct = s.stats.slo.attainment_pct;
      peak_rss_mb = ProcStatusMb("VmHWM:");
    }
    samples.push_back(std::move(s));
  }

  // Determinism: a second cluster from the same seed must bind the same
  // pods to the same nodes — with one solver thread in the untraced run,
  // and untraced (same threads) in the traced run.
  obs::SetMetricsEnabled(false);
  const int check_threads = traced != 0 ? kThreads : 1;
  std::uint64_t check_fingerprint = 0;
  {
    Cluster check(cfg, pool, check_threads, seed);
    check.Setup();
    check.StartWindow();
    for (int i = 0; i < kCheckTicks; ++i) check.Step();
    check_fingerprint = Fingerprint(check.sim().adaptor());
  }
  std::printf("setup s:");
  for (double t : setup_s) std::printf(" %.3f", t);
  std::printf("\n");
  std::printf("fingerprint %016" PRIx64 " (threads %d%s) vs %016" PRIx64
              " (threads %d, untraced) at tick %" PRId64 "\n",
              fingerprint, kThreads, traced != 0 ? ", traced" : "",
              check_fingerprint, check_threads,
              first_tick + kCheckTicks - 1);
  if (fingerprint != check_fingerprint) return Fail("fingerprint mismatch");

  const AuditResult audit = AuditFinal(cluster->sim().adaptor());
  std::printf("audit: %zu placed, %zu bound pods, %zu colocation violations, "
              "%.1f ms\n",
              audit.placed, audit.bound, audit.violations, audit.ms);
  if (!audit.ok) return Fail("final audit");

  // --- end-to-end figures ---------------------------------------------------
  std::vector<double> tick_ms;
  std::vector<std::pair<double, std::int64_t>> tick_tail_samples;
  double bound_pods = 0.0;
  double bindings = 0.0;
  double disruptions = 0.0;
  std::size_t operations = 0;
  for (const TickSample& s : samples) {
    tick_ms.push_back(s.wall_ms);
    tick_tail_samples.emplace_back(s.wall_ms, s.tick);
    bound_pods += static_cast<double>(s.first_binds);
    operations += s.events + 1;
    if (s.tick < first_tick + kQualityTicks) {
      bindings += static_cast<double>(s.stats.new_bindings);
      disruptions +=
          static_cast<double>(s.stats.migrations + s.stats.preemptions);
    }
  }
  const Tail tick_tail = TailOf(tick_tail_samples, 10);
  std::vector<double> latency;
  for (const auto& [ms, tick] : cluster->bind_latency()) latency.push_back(ms);
  const Tail latency_tail = TailOf(cluster->bind_latency(), 10);
  const double placed_pct =
      cluster->quality_submitted() > 0
          ? 100.0 * (1.0 - static_cast<double>(cluster->quality_failed()) /
                               static_cast<double>(cluster->quality_submitted()))
          : 0.0;
  const double disrupted_pct =
      bindings > 0 ? 100.0 * disruptions / bindings : 0.0;

  std::printf("%zu timed ticks in %.3f s (window %.3f s); tick tail = p%.2f "
              "of %zu ticks; bind latency tail = p%.3f of %zu pods\n",
              samples.size(), measured_s, window_timer.ElapsedSeconds(),
              tick_tail.percentile, tick_tail.samples,
              latency_tail.percentile, latency_tail.samples);
  std::printf("quality window: %zu pods submitted over %d ticks, %zu never "
              "bound; %.0f bindings, %.0f migrations+preemptions\n",
              cluster->quality_submitted(), kQualityTicks,
              cluster->quality_failed(), bindings, disruptions);

  JsonMetrics out;
  if (traced == 0) {
    out.Add("tick_ms_p50", Median(tick_ms), "ms");
    out.Add("tick_ms_tail", tick_tail.value, "ms");
    out.Add("bind_latency_ms_p50", Median(latency), "ms");
    out.Add("bind_latency_ms_tail", latency_tail.value, "ms");
    out.Add("pods_bound_per_s", measured_s > 0 ? bound_pods / measured_s : 0,
            "1/s");
    out.Add("slo_attainment_pct", slo_pct, "pct");
    out.Add("placed_pct", placed_pct, "pct");
    out.Add("undisrupted_pct", 100.0 - disrupted_pct, "pct");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    out.Add("setup_s", Median(setup_s), "s");
  } else {
    double n = 0, submit_ms = 0, tick_wall_ms = 0, tick_cpu_ms = 0;
    double events = 0, pending = 0, new_bindings = 0;
    std::vector<double> depth;
    std::vector<double> traced_ms;
    std::vector<double> untraced_ms;
    for (const TickSample& s : samples) {
      if (!s.traced) {
        untraced_ms.push_back(s.wall_ms);
        continue;
      }
      traced_ms.push_back(s.wall_ms);
      ++n;
      submit_ms += s.submit_ms;
      tick_wall_ms += s.tick_ms;
      tick_cpu_ms += s.cpu_ms;
      events += static_cast<double>(s.events);
      pending += static_cast<double>(s.stats.pending_before);
      new_bindings += static_cast<double>(s.stats.new_bindings);
      depth.push_back(static_cast<double>(s.stats.pending_before));
    }
    const auto per_tick = [n](double v) { return n > 0 ? v / n : 0.0; };

    // Shard solves run concurrently: their inner exclusive phases (every
    // core/ phase but core/task) add up CPU time, so the tick sum counts
    // the shard solve once, as its wall critical path, instead.
    const bool sharded = cfg.shards > 1;
    double exclusive_ms = 0.0;
    for (const obs::PhaseDelta& d : window.phases) {
      if (!d.exclusive) continue;
      if (sharded && d.name.rfind("core/", 0) == 0 && d.name != "core/task") {
        continue;
      }
      exclusive_ms += static_cast<double>(d.ns) * 1e-6;
    }
    double shard_cpu_ms = 0.0;
    double shard_max_ms = 0.0;
    int shard_count = 0;
    for (const obs::PhaseDelta& d : window.phases) {
      if (d.name.rfind("core/shard", 0) == 0 && d.name.size() > 6 &&
          d.name.compare(d.name.size() - 6, 6, "/solve") == 0) {
        const double ms = static_cast<double>(d.ns) * 1e-6;
        shard_cpu_ms += ms;
        shard_max_ms = std::max(shard_max_ms, ms);
        ++shard_count;
      }
    }
    if (sharded) {
      exclusive_ms += PhaseMs(window, "core/shard_route") +
                      PhaseMs(window, "core/shard_sync") +
                      PhaseMs(window, "core/shard_solve") +
                      PhaseMs(window, "core/shard_merge");
    }
    const double epilogue_ms = tick_wall_ms - exclusive_ms;
    const double attributed_pct =
        100.0 * (submit_ms + exclusive_ms) / (submit_ms + tick_wall_ms);
    const double obs_tick_ms = PhaseMs(window, "k8s/tick");
    std::printf("phase coverage: %.2f%% of tick wall attributed to phases "
                "(epilogue %.2f ms/tick); obs k8s/tick %.1f ms vs driver "
                "Tick() %.1f ms\n",
                attributed_pct, per_tick(epilogue_ms), obs_tick_ms,
                tick_wall_ms);
    if (attributed_pct > 103.0) return Fail("phase coverage above 103%");
    if (std::abs(obs_tick_ms - tick_wall_ms) > 0.03 * tick_wall_ms) {
      return Fail("obs k8s/tick disagrees with the driver's Tick() span");
    }

    const double untraced_p50 = Median(untraced_ms);
    const double lla_placed =
        Count(window, "k8s/bindings") - Count(window, "core/task_placed");

    out.Add("sim.submit.ms", per_tick(submit_ms), "ms");
    out.Add("sim.submit.events", per_tick(events), "count");
    out.Add("k8s.tick.cpu_ms", per_tick(tick_cpu_ms), "ms");
    out.Add("k8s.tick.parallelism",
            tick_wall_ms > 0 ? tick_cpu_ms / tick_wall_ms : 0, "ratio");
    out.Add("k8s.pending.depth_p50", Median(depth), "count");
    out.Add("k8s.pending.depth_max",
            depth.empty() ? 0 : *std::max_element(depth.begin(), depth.end()),
            "count");
    out.Add("k8s.bind_yield", pending > 0 ? new_bindings / pending : 0,
            "ratio");
    out.Add("k8s.pod_store.size",
            static_cast<double>(samples.back().pod_store), "count");
    out.Add("trace.workload.containers",
            static_cast<double>(samples.back().containers), "count");
    out.Add("mem.rss_slope_mb", Slope(samples) * 100.0, "MB/100ticks");
    out.Add("k8s.events.ms", per_tick(PhaseMs(window, "k8s/events")), "ms");
    out.Add("k8s.events_dispatched",
            per_tick(Count(window, "k8s/events_dispatched")), "count");
    out.Add("k8s.events_coalesced",
            per_tick(Count(window, "k8s/events_coalesced")), "count");
    out.Add("k8s.sync_state.ms", per_tick(PhaseMs(window, "k8s/sync_state")),
            "ms");
    out.Add("k8s.reconcile.ms", per_tick(PhaseMs(window, "k8s/reconcile")),
            "ms");
    out.Add("k8s.bindings", per_tick(Count(window, "k8s/bindings")), "count");
    out.Add("k8s.epilogue.ms", per_tick(epilogue_ms), "ms");
    out.Add("core.weights.ms", per_tick(PhaseMs(window, "core/weights")),
            "ms");
    out.Add("core.net_sync.ms", per_tick(PhaseMs(window, "core/net_sync")),
            "ms");
    out.Add("core.net_sync_dirty",
            per_tick(Count(window, "core/net_sync_dirty")), "count");
    out.Add("core.augment.ms", per_tick(PhaseMs(window, "core/augment")),
            "ms");
    out.Add("core.group_walk.ms", per_tick(PhaseMs(window, "core/group_walk")),
            "ms");
    out.Add("core.group_walk.calls",
            per_tick(PhaseCalls(window, "core/group_walk")), "count");
    out.Add("core.group_placed", per_tick(Count(window, "core/group_placed")),
            "count");
    out.Add("core.find_machine.ms",
            per_tick(PhaseMs(window, "core/find_machine")), "ms");
    out.Add("core.find_machine.calls",
            per_tick(PhaseCalls(window, "core/find_machine")), "count");
    out.Add("core.search_explored",
            per_tick(Count(window, "core/search_explored")), "count");
    out.Add("core.search_il_prunes",
            per_tick(Count(window, "core/search_il_prunes")), "count");
    out.Add("core.explored_per_placement",
            lla_placed > 0 ? Count(window, "core/search_explored") / lla_placed
                           : 0,
            "ratio");
    out.Add("core.repair.ms", per_tick(PhaseMs(window, "core/repair")), "ms");
    out.Add("core.migrations", per_tick(Count(window, "core/migrations")),
            "count");
    out.Add("core.preemptions", per_tick(Count(window, "core/preemptions")),
            "count");
    out.Add("core.unplaced", per_tick(Count(window, "core/unplaced")),
            "count");
    out.Add("core.task.ms", per_tick(PhaseMs(window, "core/task")), "ms");
    out.Add("core.task_placed", per_tick(Count(window, "core/task_placed")),
            "count");
    out.Add("core.shard_route.ms",
            per_tick(PhaseMs(window, "core/shard_route")), "ms");
    out.Add("core.shard_sync.ms", per_tick(PhaseMs(window, "core/shard_sync")),
            "ms");
    out.Add("core.shard_merge.ms",
            per_tick(PhaseMs(window, "core/shard_merge")), "ms");
    out.Add("core.shard_solve.ms",
            per_tick(PhaseMs(window, "core/shard_solve")), "ms");
    out.Add("core.shard_solve.cpu_ms", per_tick(shard_cpu_ms), "ms");
    out.Add("core.shard_imbalance",
            shard_cpu_ms > 0 ? shard_max_ms * shard_count / shard_cpu_ms : 0,
            "ratio");
    out.Add("core.net_build.ms", PhaseMs(setup_window, "core/net_build"),
            "ms");
    out.Add("flow.dinic.ms", PhaseMs(setup_window, "flow/dinic"), "ms");
    out.Add("cluster.audit.ms", audit.ms, "ms");
    out.Add("driver.gen.ms", gen_ms, "ms");
    out.Add("obs.overhead_pct",
            untraced_p50 > 0 ? 100.0 * (Median(traced_ms) / untraced_p50 - 1)
                             : 0,
            "pct");
    out.Add("phase.attributed_pct", attributed_pct, "pct");
    out.Add("disrupted_pct", disrupted_pct, "pct");
  }
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": 0, "
              "\"metrics\": {%s}}\n",
              operations, out.body().c_str());
  return 0;
}
