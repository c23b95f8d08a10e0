// Aladdin's aggregated scheduling network (§III.A, Fig. 4) and the
// shortest-path search over it (Algorithm 1).
//
// The network is s → T_i → A_j → G_k → R_x → N_y → t: containers feed their
// application vertex, applications fan out over (sub-)cluster and rack
// aggregation vertices to machines. The aggregation levels exist to cut the
// edge count from O(|T|·|N|) to O(|T| + |A|·|R| + |N|); operationally they
// carry *aggregate residual capacity* (the max free machine beneath them),
// letting a path search skip an entire rack or sub-cluster whose best
// machine cannot admit the container.
//
// "Shortest path" distance is remaining free CPU after placement — i.e. the
// search returns the tightest admissible machine (best-fit), which is what
// minimises used machines (Eq. 9 via §IV's objective discussion).
//
// The two latency optimisations of §IV.A are implemented here:
//  * Isomorphism limiting (IL): containers of one application are identical,
//    so a (application, machine) probe that failed the blacklist is
//    memoised against the machine's change-epoch and siblings skip the
//    probe while the machine is unchanged.
//  * Depth limiting (DL): a container's s→T_i edge saturates after one
//    placement, so the search stops at the *first* admissible machine in
//    best-fit order instead of enumerating all alternatives.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "cluster/state.h"
#include "core/capacity.h"
#include "obs/journal.h"

namespace aladdin::core {

struct SearchOptions {
  bool enable_il = true;
  bool enable_dl = true;
};

// One application's IL memo: the machines on which a sibling failed the
// blacklist (Eq. 7–8), each stamped with the machine's change epoch at the
// failure + 1. A probe prunes while the stamp still equals the machine's
// epoch + 1, i.e. while the machine is unchanged since the failure.
//
// An open-addressing table of {machine, stamp} slots (linear probing,
// power-of-two size, at most half full), so an application pays for the
// failures it has, not for the machine count. A table grows only when an
// insert would pass half full; it first drops every entry whose machine
// has changed since (its stamp is stale), so the new size follows the live
// entries: at least 4 slots per live entry and never fewer than
// kMinSlots. No table until the first recorded failure.
//
// A growth that would need as many bytes of slots as one stamp per machine
// takes that dense form instead, and keeps it: it is no larger than the
// table, and a probe is one load rather than a hashed walk. Only an
// application blacklisted on a large share of the machines gets there,
// such as a big anti-affinity application whose siblings a repair relocates
// by walking over every machine they already occupy.
class IlMemo {
 public:
  static constexpr std::size_t kMinSlots = 8;

  // `epochs` is the per-machine change counter (indexed by machine id);
  // its size is the machine count.
  [[nodiscard]] bool Pruned(std::int32_t machine,
                            std::span<const std::uint32_t> epochs) const;
  void Record(std::int32_t machine, std::span<const std::uint32_t> epochs);

  // Slots of the table; 0 before the first failure and once dense.
  [[nodiscard]] std::size_t slot_count() const { return size_; }

 private:
  struct Slot {
    std::int32_t machine;  // kEmpty = free slot
    std::uint32_t stamp;   // machine epoch at the failure + 1
  };
  static constexpr std::int32_t kEmpty = -1;

  // The slot holding `machine`, or the empty slot where it would go.
  [[nodiscard]] std::size_t Find(std::int32_t machine) const;
  void Rehash(std::span<const std::uint32_t> epochs);

  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<std::uint32_t[]> dense_;  // stamp per machine, 0 = none
  std::uint32_t size_ = 0;  // a power of two, or 0
  std::uint32_t used_ = 0;  // occupied slots, stale entries included
};

struct SearchCounters {
  std::int64_t explored_paths = 0;  // machine (and aggregate) probes
  std::int64_t il_prunes = 0;
  std::int64_t dl_stops = 0;

  void Reset() { *this = SearchCounters{}; }
};

class AggregatedNetwork {
 public:
  explicit AggregatedNetwork(const cluster::Topology& topology);

  // Binds to (and rebuilds indices from) a cluster state. All subsequent
  // Deploy/Evict for that state must go through this object so aggregates
  // stay coherent — or, for mutations applied to the state directly by
  // other actors, be replayed later via Sync() (Attach enables the state's
  // touch log for exactly that purpose).
  void Attach(cluster::ClusterState* state);

  // Incremental re-attach (§IV.A taken across Schedule() calls): replays
  // the state's touch log from this network's cursor, reindexing
  // only machines whose residual capacity may have changed since the last
  // Attach()/Sync() — O(changes · log M) instead of the O(M log M) rebuild.
  // Falls back to a full Attach() when the log overflowed. Requires a prior
  // Attach() to the same state. Replayed machines get a fresh change epoch,
  // so memoised IL failures for them are naturally invalidated.
  void Sync();

  // Algorithm 1's getShortestPath for one container: returns the tightest
  // machine admitted by the capacity function, or Invalid. The same machine
  // is returned for every option combination; options only change how much
  // of the network is explored (counted in `counters`).
  // `exclude` (optional) removes one machine from consideration — the
  // repair engine uses it to find an *alternative* machine for a victim.
  cluster::MachineId FindMachine(
      cluster::ContainerId c, const SearchOptions& options,
      SearchCounters& counters,
      cluster::MachineId exclude = cluster::MachineId::Invalid());

  // Group-decomposed placement (ISSUE 9 tentpole): places a *run* of
  // isomorphic siblings — same application, identical request tuple, all
  // currently unplaced — in one sorted-capacity waterfall over flat arrays
  // instead of `run.size()` independent best-fit walks over the by_free_
  // tree. Requires enable_dl (the waterfall IS the first-admissible walk)
  // and run.size() >= 2; callers route other cases through FindMachine.
  //
  // The walk replays the serial per-sibling search *exactly*: machines are
  // considered in the same (free cpu, machine) order each sibling would see,
  // machines whose free tuple cannot hold the shared request (Eq. 6) never
  // enter the snapshot, blacklist probes stay live (self-anti-affinity
  // flips mid-run), and IL memo reads/writes land exactly where the serial
  // walk would put them. Deploys happen inside (epoch
  // bumped eagerly, by_free_ re-key deferred to one flush at the end), so
  // placements, SearchCounters, IL memo contents and machine epochs are all
  // bit-identical to calling FindMachine+Deploy per sibling. out[i] gets
  // the machine for run[i] (Invalid = unplaced; failures are a suffix).
  // Returns the number placed.
  std::size_t PlaceGroupRun(std::span<const cluster::ContainerId> run,
                            const SearchOptions& options,
                            SearchCounters& counters,
                            std::span<cluster::MachineId> out);

  // Terminal failure diagnosis for the provenance journal: explains,
  // against the current state, why no admissible path exists for `c`.
  // Classifies every CPU-feasible machine as memory-blocked or
  // anti-affinity-blocked (intra- vs inter-application via the constraint
  // set) and returns the dominant cause; kCapacityExhaustedCpu when not
  // even the emptiest machine has the CPU headroom. Read-only: touches
  // neither SearchCounters nor any registry metric, so perf-gated counter
  // identities are unaffected. Cost is O(CPU-feasible machines), paid only
  // per unplaced container. kNoAdmissiblePath is the defensive fallback
  // (e.g. the state changed between the failed search and the diagnosis).
  [[nodiscard]] obs::Cause DiagnoseFailure(cluster::ContainerId c) const;

  // State mutations, mirrored into the aggregate indices.
  void Deploy(cluster::ContainerId c, cluster::MachineId m);
  void Evict(cluster::ContainerId c);

  // Repair-engine scan: visit machines in descending-free-CPU order (most
  // headroom first) until `fn` returns true or `limit` machines seen.
  // Templated on the callable so repair's capturing lambdas bind directly —
  // a std::function here would heap-allocate per scan on the hot path.
  template <typename Fn>
  void ScanDescending(int limit, Fn&& fn) const {
    int seen = 0;
    for (auto it = by_free_.rbegin(); it != by_free_.rend() && seen < limit;
         ++it, ++seen) {
      if (fn(cluster::MachineId(it->second))) return;
    }
  }

  [[nodiscard]] cluster::ClusterState* state() { return state_; }
  [[nodiscard]] std::uint32_t MachineEpoch(cluster::MachineId m) const {
    return epoch_[static_cast<std::size_t>(m.value())];
  }

 private:
  using Key = std::pair<std::int64_t, std::int32_t>;  // (free cpu, machine)

  void Reindex(cluster::MachineId m);
  // The key-only half of Reindex: re-keys by_free_ / rack / sub-cluster
  // aggregates to the machine's live free CPU *without* bumping its change
  // epoch. Early-outs when the key already matches, so a deferred flush may
  // call it once per deploy of the same machine. PlaceGroupRun pairs it
  // with DeployKeyDeferred, which bumps the epoch at deploy time (matching
  // the serial wrapper) but leaves the sorted keys frozen for the walk.
  void ReindexKeys(cluster::MachineId m);
  void DeployKeyDeferred(cluster::ContainerId c, cluster::MachineId m);

  // Full enumeration through the aggregation vertices (plain / +IL modes).
  cluster::MachineId FindByEnumeration(cluster::ContainerId c,
                                       const SearchOptions& options,
                                       SearchCounters& counters,
                                       cluster::MachineId exclude);
  // Sorted best-fit walk with first-hit termination (+DL mode). Steps over
  // machines whose indexed free tuple cannot hold the request (Eq. 6)
  // without probing, counting or memoising them, so a visited machine can
  // fail only on the blacklist.
  cluster::MachineId FindByBestFitWalk(cluster::ContainerId c,
                                       const SearchOptions& options,
                                       SearchCounters& counters,
                                       cluster::MachineId exclude);

  // Group-waterfall scratch (PlaceGroupRun), hoisted so steady-state runs
  // allocate nothing. The snapshot is the frozen (free, machine) sequence of
  // by_free_ machines that fit the run's request, materialised lazily in
  // chunks; `touched` holds winners re-inserted at their live keys while
  // they still fit; `moved` collects machines whose by_free_ re-key is
  // deferred to the end-of-run flush.
  struct GroupEntry {
    std::int64_t free;
    std::int32_t machine;
    std::uint8_t state;  // kGroupFresh / kGroupFailed / kGroupMoved
  };
  static constexpr std::uint8_t kGroupFresh = 0;
  static constexpr std::uint8_t kGroupFailed = 1;
  static constexpr std::uint8_t kGroupMoved = 2;
  std::vector<GroupEntry> group_snapshot_;
  std::vector<GroupEntry> group_touched_;
  std::vector<GroupEntry> group_prefix_failed_;
  std::vector<std::int32_t> group_moved_;

  // IL memo: (app, machine) -> machine epoch at failure. A probe is skipped
  // while the machine has not changed since the recorded failure. Every
  // search memoises only blacklist failures: a resource-fit failure is a
  // componentwise compare, cheaper than a lookup (and the best-fit walks
  // step over such machines before probing), while a blacklist probe walks
  // the machine's tenant list, which is exactly the cost isomorphic
  // siblings should not pay twice.
  [[nodiscard]] bool IlPruned(cluster::ApplicationId app,
                              cluster::MachineId m) const;
  void RecordIlFailure(cluster::ApplicationId app, cluster::MachineId m);

  const cluster::Topology* topology_;
  cluster::ClusterState* state_ = nullptr;

  std::set<Key> by_free_;  // N_y → t residuals, sorted
  // Each machine's free tuple as of its last re-key; its CPU is the
  // machine's by_free_ key, and the best-fit walks test Eq. 6 against it.
  std::vector<cluster::ResourceVector> indexed_free_;
  std::vector<std::uint32_t> epoch_;  // per-machine change counter
  // Aggregate residuals for the R_x and G_k vertices.
  std::vector<std::multiset<std::int64_t>> rack_free_;        // per rack
  std::vector<std::multiset<std::int64_t>> subcluster_free_;  // rack maxima
  std::vector<std::int64_t> rack_max_;  // cached current max per rack

  // One IlMemo per application, indexed by application id.
  std::vector<IlMemo> il_memo_;

  // Absolute cursor into state_'s touch log: everything before it has been
  // reindexed here. The network's own mutation wrappers Reindex eagerly and
  // advance the cursor past their self-inflicted entries.
  std::uint64_t log_cursor_ = 0;
};

}  // namespace aladdin::core
