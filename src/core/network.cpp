#include "core/network.h"

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "common/analysis.h"
#include "common/check.h"
#include "obs/trace.h"

namespace aladdin::core {

namespace {
template <typename T>
std::size_t Idx(T id) {
  return static_cast<std::size_t>(id.value());
}
}  // namespace

AggregatedNetwork::AggregatedNetwork(const cluster::Topology& topology)
    : topology_(&topology) {}

void AggregatedNetwork::Attach(cluster::ClusterState* state) {
  ALADDIN_PHASE_SCOPE("core/net_build");
  ALADDIN_METRIC_ADD("core/net_builds", 1);
  ALADDIN_CHECK(state != nullptr);
  ALADDIN_CHECK(&state->topology() == topology_);
  state_ = state;
  // Mutations applied to the state behind our back land in its touch log;
  // Sync() replays them from this cursor.
  state_->EnableTouchLog();
  log_cursor_ = state_->TouchLogEnd();

  const std::size_t machines = topology_->machine_count();
  by_free_.clear();
  // analyze:allow(A103) Attach is the full (re)build; per-tick Sync() replays the touch log
  indexed_free_.assign(machines, cluster::ResourceVector::Zero());
  epoch_.assign(machines, 0);  // analyze:allow(A103) rebuild arm, as above
  rack_free_.assign(topology_->rack_count(), {});  // analyze:allow(A103) rebuild arm, as above
  subcluster_free_.assign(topology_->subcluster_count(), {});  // analyze:allow(A103) rebuild arm, as above
  rack_max_.assign(topology_->rack_count(), 0);  // analyze:allow(A103) rebuild arm, as above
  il_memo_.clear();
  il_memo_.resize(state->applications().size());  // analyze:allow(A103) rebuild arm, as above

  // Build rack multisets first, then seed sub-cluster maxima.
  for (const auto& machine : topology_->machines()) {
    indexed_free_[Idx(machine.id)] = state_->Free(machine.id);
    const std::int64_t free = indexed_free_[Idx(machine.id)].cpu_millis();
    by_free_.insert({free, machine.id.value()});
    rack_free_[Idx(machine.rack)].insert(free);
  }
  for (std::size_t r = 0; r < rack_free_.size(); ++r) {
    const auto& set = rack_free_[r];
    rack_max_[r] = set.empty() ? 0 : *set.rbegin();
    const auto g = topology_->RackSubCluster(
        cluster::RackId(static_cast<std::int32_t>(r)));
    subcluster_free_[Idx(g)].insert(rack_max_[r]);
  }
}

void AggregatedNetwork::Sync() {
  ALADDIN_CHECK(state_ != nullptr) << "Sync() before Attach()";
  // Applications are append-only while a workload is live; grow the IL
  // tables so new apps index safely. Existing memos stay valid: a memoised
  // (app, machine) failure is keyed to the machine's change epoch, and any
  // machine mutated since the memo was recorded gets its epoch bumped by
  // the replay below.
  if (il_memo_.size() < state_->applications().size()) {
    // analyze:allow(A103) high-water growth with the append-only app list
    il_memo_.resize(state_->applications().size());
  }
  bool overflowed = false;
  const std::span<const cluster::Touch> touches =
      state_->TouchesSince(log_cursor_, &overflowed);
  if (overflowed) {
    Attach(state_);  // cursor fell off the retained window; full rebuild
    return;
  }
  if (touches.empty()) {
    // Noop fast path: nothing changed behind our back since the last
    // replay, so the aggregates are already coherent — skip the phase
    // scope and the replay loop entirely. Witnessed by the counter so an
    // idle tick's warm solve is testable (WarmSolve in test_batch).
    ALADDIN_METRIC_ADD("core/net_sync_noop", 1);
    return;
  }
  // Scoped below the overflow branch so the exclusive net_build phase the
  // rebuild records never nests inside net_sync (exclusive phases must stay
  // disjoint for the tick-coverage sum).
  ALADDIN_PHASE_SCOPE("core/net_sync");
  ALADDIN_METRIC_ADD("core/net_syncs", 1);
  ALADDIN_METRIC_ADD("core/net_sync_dirty", touches.size());
  for (const cluster::Touch& touch : touches) Reindex(touch.machine);
  log_cursor_ = state_->TouchLogEnd();
}

void AggregatedNetwork::Reindex(cluster::MachineId m) {
  // The epoch bump happens even when the free CPU is unchanged (a machine
  // can mutate without its residual moving — e.g. equal-sized evict+deploy
  // between Syncs), so memoised IL failures never outlive a real change.
  ++epoch_[Idx(m)];
  ReindexKeys(m);
}

void AggregatedNetwork::ReindexKeys(cluster::MachineId m) {
  // The tuple is refreshed even when the CPU key is unchanged: an evict and
  // a deploy of equal CPU can still move the machine's free memory.
  cluster::ResourceVector& indexed = indexed_free_[Idx(m)];
  const std::int64_t old_free = indexed.cpu_millis();
  indexed = state_->Free(m);
  const std::int64_t new_free = indexed.cpu_millis();
  if (old_free == new_free) return;

  // Re-key via node extraction: erase+insert would free and re-malloc a
  // tree node per mutation, and Reindex runs once per Deploy/Evict.
  auto nh = by_free_.extract({old_free, m.value()});
  ALADDIN_DCHECK(!nh.empty());
  nh.value() = {new_free, m.value()};
  by_free_.insert(std::move(nh));

  const cluster::RackId rack = topology_->machine(m).rack;
  auto& rset = rack_free_[Idx(rack)];
  auto rh = rset.extract(rset.find(old_free));
  rh.value() = new_free;
  rset.insert(std::move(rh));
  const std::int64_t new_rack_max = rset.empty() ? 0 : *rset.rbegin();
  if (new_rack_max != rack_max_[Idx(rack)]) {
    const auto g = topology_->RackSubCluster(rack);
    auto& gset = subcluster_free_[Idx(g)];
    auto gh = gset.extract(gset.find(rack_max_[Idx(rack)]));
    gh.value() = new_rack_max;
    gset.insert(std::move(gh));
    rack_max_[Idx(rack)] = new_rack_max;
  }
}

// The mutation wrappers reindex eagerly, then advance the log cursor past
// their own journal entries — but only when no unconsumed external entries
// precede them (replaying an already-reindexed machine in Sync() is merely
// a redundant epoch bump, never a correctness problem).

void AggregatedNetwork::Deploy(cluster::ContainerId c, cluster::MachineId m) {
  const std::uint64_t before = state_->TouchLogEnd();
  state_->Deploy(c, m);
  Reindex(m);
  if (log_cursor_ == before) log_cursor_ = state_->TouchLogEnd();
}

void AggregatedNetwork::Evict(cluster::ContainerId c) {
  const cluster::MachineId m = state_->PlacementOf(c);
  const std::uint64_t before = state_->TouchLogEnd();
  state_->Evict(c);
  Reindex(m);
  if (log_cursor_ == before) log_cursor_ = state_->TouchLogEnd();
}

void AggregatedNetwork::DeployKeyDeferred(cluster::ContainerId c,
                                          cluster::MachineId m) {
  // Same contract as Deploy(), except the sorted-key update is deferred:
  // the epoch bump (IL memo invalidation) is taken eagerly so memo
  // semantics match the serial wrapper exactly, while by_free_/rack
  // aggregates stay frozen until the group flush re-keys the moved set.
  const std::uint64_t before = state_->TouchLogEnd();
  state_->Deploy(c, m);
  ++epoch_[Idx(m)];
  if (log_cursor_ == before) log_cursor_ = state_->TouchLogEnd();
}

ALADDIN_HOT std::size_t AggregatedNetwork::PlaceGroupRun(
    std::span<const cluster::ContainerId> run, const SearchOptions& options,
    SearchCounters& counters, std::span<cluster::MachineId> out) {
  ALADDIN_TRACE_SCOPE("core/group_walk");
  ALADDIN_CHECK(state_ != nullptr);
  ALADDIN_DCHECK(run.size() >= 2 && run.size() == out.size());
  const cluster::ApplicationId app = state_->containers()[Idx(run[0])].app;
  const cluster::ResourceVector& request =
      state_->containers()[Idx(run[0])].request;
  const std::int64_t need = request.cpu_millis();
  ALADDIN_DCHECK(need > 0);
#if ALADDIN_DCHECK_IS_ON()
  for (cluster::ContainerId c : run) {
    ALADDIN_DCHECK(state_->containers()[Idx(c)].app == app);
    ALADDIN_DCHECK(state_->containers()[Idx(c)].request == request);
    ALADDIN_DCHECK(!state_->IsPlaced(c));
  }
#endif
  const bool use_il =
      options.enable_il &&
      state_->applications()[Idx(app)].containers.size() > 1;

  group_snapshot_.clear();
  group_touched_.clear();
  group_moved_.clear();
  group_prefix_failed_.clear();

  // No re-key touches by_free_ until the flush, so this iterator survives
  // the whole run: the frozen snapshot extends lazily, chunk by chunk, only
  // as far as the merged walks actually reach. Machines deployed mid-run
  // are only ever ones the walk already materialised, so past the frontier
  // every key and indexed tuple is live. Only machines whose tuple holds
  // the request (Eq. 6) enter: the serial walk steps over the others, and
  // a machine that does not fit is never a winner, so nothing in the run
  // changes it.
  auto snap_it = by_free_.lower_bound({need, -1});
  bool snap_done = (snap_it == by_free_.end());
  auto extend_snapshot = [&] {
    if (snap_done) return;
    constexpr std::size_t kChunk = 64;
    for (std::size_t n = 0; snap_it != by_free_.end() && n < kChunk;
         ++snap_it) {
      const auto [free, machine] = *snap_it;
      if (!request.FitsIn(indexed_free_[static_cast<std::size_t>(machine)])) {
        continue;
      }
      group_snapshot_.push_back(GroupEntry{free, machine, kGroupFresh});
      ++n;
    }
    snap_done = (snap_it == by_free_.end());
  };
  const auto entry_less = [](const GroupEntry& a, const GroupEntry& b) {
    return a.free != b.free ? a.free < b.free : a.machine < b.machine;
  };

  std::size_t placed = 0;
  std::size_t failed_from = run.size();
  // Snapshot entries in [0, prefix_end) are settled (failed or moved) by
  // earlier siblings; later walks start past them. The failed ones live in
  // group_prefix_failed_ (sorted, appended in snapshot order), and the
  // serial walk's counter bumps for re-visiting them — memo-prune under IL,
  // re-probe-and-fail without — are charged wholesale per sibling via one
  // binary search: the serial merge stops at the winner, so only failed
  // keys strictly below the winner's key would have been visited.
  std::size_t prefix_end = 0;
  for (std::size_t s = 0; s < run.size(); ++s) {
    const cluster::ContainerId c = run[s];
    cluster::MachineId winner = cluster::MachineId::Invalid();
    GroupEntry winner_key{0, 0, 0};
    // Two-pointer merge of the frozen snapshot and the re-inserted winners:
    // candidates stream by ascending (free, machine), exactly the order the
    // serial per-sibling walk would visit live keys in.
    std::size_t si = prefix_end;
    std::size_t ti = 0;
    while (true) {
      if (si == group_snapshot_.size()) extend_snapshot();
      const bool have_snap = si < group_snapshot_.size();
      const bool have_touch = ti < group_touched_.size();
      if (!have_snap && !have_touch) break;
      const bool take_snap =
          have_snap && (!have_touch ||
                        entry_less(group_snapshot_[si], group_touched_[ti]));
      if (take_snap) {
        GroupEntry& e = group_snapshot_[si];
        ++si;
        // Beyond the settled prefix every snapshot entry is fresh: a walk
        // only ever marks entries it visits, and the prefix advances past
        // everything visited before the next walk starts.
        ALADDIN_DCHECK(e.state == kGroupFresh);
        const cluster::MachineId m(e.machine);
        // Untouched machine: a pre-run IL memo is still valid.
        if (use_il && IlPruned(app, m)) {
          ++counters.il_prunes;
          e.state = kGroupFailed;
          continue;
        }
        ++counters.explored_paths;
        ALADDIN_DCHECK(state_->Fits(c, m));
        if (state_->Blacklisted(c, m)) {
          if (use_il) RecordIlFailure(app, m);
          e.state = kGroupFailed;
          continue;
        }
        winner = m;
        winner_key = e;
        e.state = kGroupMoved;
        break;
      }
      GroupEntry& e = group_touched_[ti];
      if (e.state == kGroupFailed) {
        use_il ? ++counters.il_prunes : ++counters.explored_paths;
        ++ti;
        continue;
      }
      // Re-inserted winner: its epoch was bumped at deploy time, so any
      // pre-run memo is stale — a live probe, like the serial walk. It
      // re-entered only while it fits, so only the blacklist can fail.
      ++counters.explored_paths;
      const cluster::MachineId m(e.machine);
      ALADDIN_DCHECK(state_->Fits(c, m));
      if (state_->Blacklisted(c, m)) {
        if (use_il) RecordIlFailure(app, m);
        e.state = kGroupFailed;
        ++ti;
        continue;
      }
      winner = m;
      winner_key = e;
      group_touched_.erase(group_touched_.begin() +
                           static_cast<std::ptrdiff_t>(ti));
      break;
    }
    // Charge the skipped failed-prefix visits. On a win, only keys the
    // serial merge would have reached (strictly below the winner's key — a
    // touched winner can sit below failed snapshot keys) count; on
    // exhaustion the serial walk would have re-visited the whole prefix.
    const std::int64_t skipped =
        winner.valid()
            ? std::lower_bound(group_prefix_failed_.begin(),
                               group_prefix_failed_.end(), winner_key,
                               entry_less) -
                  group_prefix_failed_.begin()
            : static_cast<std::int64_t>(group_prefix_failed_.size());
    if (skipped > 0) {
      use_il ? counters.il_prunes += skipped
             : counters.explored_paths += skipped;
    }
    if (!winner.valid()) {
      failed_from = s;
      break;
    }
    // Settle this walk's snapshot range: entries it failed were counted
    // live above and now join the prefix list (still in ascending key
    // order) so later siblings skip them in O(log).
    for (std::size_t i = prefix_end; i < si; ++i) {
      if (group_snapshot_[i].state == kGroupFailed) {
        group_prefix_failed_.push_back(group_snapshot_[i]);
      }
    }
    prefix_end = si;
    out[s] = winner;
    ++counters.dl_stops;
    DeployKeyDeferred(c, winner);
    group_moved_.push_back(winner.value());
    const cluster::ResourceVector& left = state_->Free(winner);
    if (request.FitsIn(left)) {
      // Still a candidate for later siblings, at its live (smaller) key.
      const GroupEntry fresh{left.cpu_millis(), winner.value(), kGroupFresh};
      group_touched_.insert(std::upper_bound(group_touched_.begin(),
                                             group_touched_.end(), fresh,
                                             entry_less),
                            fresh);
    }
    ++placed;
  }

  if (failed_from < run.size()) {
    // The failing sibling exhausted (and fully materialised) the candidate
    // space, memoising every probe; siblings are isomorphic and nothing
    // mutates after a failure, so each later sibling would repeat the same
    // fruitless walk. Charge those walks wholesale.
    std::int64_t candidates =
        static_cast<std::int64_t>(group_touched_.size());
    for (const GroupEntry& e : group_snapshot_) {
      if (e.state != kGroupMoved) ++candidates;
    }
    for (std::size_t s = failed_from; s < run.size(); ++s) {
      out[s] = cluster::MachineId::Invalid();
      if (s > failed_from) {
        use_il ? counters.il_prunes += candidates
               : counters.explored_paths += candidates;
      }
    }
  }

  // Flush the deferred re-keys before any caller-side diagnosis or search
  // reads the aggregates. Idempotent per machine: a double winner re-keys
  // straight to its final residual once, then early-outs.
  for (std::int32_t m : group_moved_) ReindexKeys(cluster::MachineId(m));
  ALADDIN_METRIC_ADD("core/group_runs", 1);
  ALADDIN_METRIC_ADD("core/group_placed", placed);
  return placed;
}

std::size_t IlMemo::Find(std::int32_t machine) const {
  // Fibonacci hashing: the top log2(size_) bits of the product spread
  // dense ids.
  const std::size_t mask = size_ - 1;
  std::size_t i = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(machine)) *
       0x9E3779B97F4A7C15ull) >>
      (64 - std::countr_zero(size_)));
  // At most half full, so the probe always meets an empty slot.
  while (slots_[i].machine != machine && slots_[i].machine != kEmpty) {
    i = (i + 1) & mask;
  }
  return i;
}

bool IlMemo::Pruned(std::int32_t machine,
                    std::span<const std::uint32_t> epochs) const {
  const auto m = static_cast<std::size_t>(machine);
  if (dense_ != nullptr) return dense_[m] == epochs[m] + 1;
  if (size_ == 0) return false;  // app never recorded a failure
  const Slot& slot = slots_[Find(machine)];
  return slot.machine == machine && slot.stamp == epochs[m] + 1;
}

void IlMemo::Record(std::int32_t machine,
                    std::span<const std::uint32_t> epochs) {
  const auto m = static_cast<std::size_t>(machine);
  const std::uint32_t stamp = epochs[m] + 1;
  if (dense_ != nullptr) {
    dense_[m] = stamp;
    return;
  }
  if (size_ != 0) {
    Slot& slot = slots_[Find(machine)];
    if (slot.machine == machine) {
      slot.stamp = stamp;
      return;
    }
    if (2 * (used_ + 1) <= size_) {
      slot = Slot{machine, stamp};
      ++used_;
      return;
    }
  }
  Rehash(epochs);
  Record(machine, epochs);  // now dense, or a table with room
}

void IlMemo::Rehash(std::span<const std::uint32_t> epochs) {
  const auto live = [&](const Slot& s) {
    return s.machine != kEmpty &&
           s.stamp == epochs[static_cast<std::size_t>(s.machine)] + 1;
  };
  const std::unique_ptr<Slot[]> old = std::move(slots_);
  const std::span<const Slot> old_slots(old.get(), size_);
  std::size_t live_count = 0;
  for (const Slot& s : old_slots) live_count += live(s) ? 1 : 0;
  const std::size_t size = std::max(kMinSlots, std::bit_ceil(4 * live_count));
  if (size * sizeof(Slot) >= epochs.size() * sizeof(std::uint32_t)) {
    // analyze:allow(A101) a rehash's allocation, once per application: the dense form is final
    dense_ = std::make_unique<std::uint32_t[]>(epochs.size());  // all 0
    for (const Slot& s : old_slots) {
      if (live(s)) dense_[static_cast<std::size_t>(s.machine)] = s.stamp;
    }
    size_ = 0;
    used_ = 0;
    return;
  }
  size_ = static_cast<std::uint32_t>(size);
  // analyze:allow(A101) the table's one allocation: a rehash, taken only when an insert would pass half full, sized by live entries
  slots_ = std::make_unique<Slot[]>(size_);
  std::fill_n(slots_.get(), size_, Slot{kEmpty, 0});
  used_ = 0;
  for (const Slot& s : old_slots) {
    if (!live(s)) continue;
    slots_[Find(s.machine)] = s;
    ++used_;
  }
}

bool AggregatedNetwork::IlPruned(cluster::ApplicationId app,
                                 cluster::MachineId m) const {
  return il_memo_[Idx(app)].Pruned(m.value(), epoch_);
}

void AggregatedNetwork::RecordIlFailure(cluster::ApplicationId app,
                                        cluster::MachineId m) {
  il_memo_[Idx(app)].Record(m.value(), epoch_);
}

cluster::MachineId AggregatedNetwork::FindMachine(cluster::ContainerId c,
                                                  const SearchOptions& options,
                                                  SearchCounters& counters,
                                                  cluster::MachineId exclude) {
  ALADDIN_TRACE_SCOPE("core/find_machine");
  ALADDIN_CHECK(state_ != nullptr);
  // DL changes the traversal (first saturating path wins); without it the
  // search enumerates every candidate path through the aggregates. Both
  // traversals return the same machine — the tightest admissible one.
  return options.enable_dl ? FindByBestFitWalk(c, options, counters, exclude)
                           : FindByEnumeration(c, options, counters, exclude);
}

obs::Cause AggregatedNetwork::DiagnoseFailure(cluster::ContainerId c) const {
  ALADDIN_CHECK(state_ != nullptr);
  const cluster::Container& container = state_->containers()[Idx(c)];
  const std::int64_t need_cpu = container.request.cpu_millis();
  // O(1) global-headroom check: by_free_ is sorted by free CPU, so the last
  // key is the cluster's emptiest machine.
  if (by_free_.empty() || by_free_.rbegin()->first < need_cpu) {
    return obs::Cause::kCapacityExhaustedCpu;
  }
  const bool self_conflicts =
      state_->constraints().Conflicts(container.app, container.app);
  std::int64_t mem_blocked = 0;
  std::int64_t intra_blocked = 0;
  std::int64_t inter_blocked = 0;
  for (auto it = by_free_.lower_bound({need_cpu, -1}); it != by_free_.end();
       ++it) {
    const cluster::MachineId m(it->second);
    const CapacityCheck check = CapacityFunction::Evaluate(*state_, c, m);
    if (check.Admits()) return obs::Cause::kNoAdmissiblePath;
    if (!check.fits) {
      ++mem_blocked;
      continue;
    }
    // Blacklisted: attribute to the container's own application when its
    // within-app anti-affinity is what blocks this machine, else to a
    // conflicting foreign application.
    bool intra = false;
    if (self_conflicts) {
      for (const auto& [app, count] : state_->AppsOn(m)) {
        if (app == container.app.value() && count > 0) {
          intra = true;
          break;
        }
      }
    }
    ++(intra ? intra_blocked : inter_blocked);
  }
  // Dominant cause wins; anti-affinity outranks memory on ties (a blocked
  // machine with the memory free is the more actionable explanation), and
  // intra outranks inter (the container's own app is the simpler story).
  const std::int64_t blacklist_blocked = intra_blocked + inter_blocked;
  if (blacklist_blocked == 0 && mem_blocked == 0) {
    return obs::Cause::kNoAdmissiblePath;  // nothing CPU-feasible after all
  }
  if (mem_blocked > blacklist_blocked) {
    return obs::Cause::kCapacityExhaustedMem;
  }
  return intra_blocked >= inter_blocked ? obs::Cause::kAntiAffinityIntraApp
                                        : obs::Cause::kAntiAffinityInterApp;
}

cluster::MachineId AggregatedNetwork::FindByEnumeration(
    cluster::ContainerId c, const SearchOptions& options,
    SearchCounters& counters, cluster::MachineId exclude) {
  const cluster::ApplicationId app = state_->containers()[Idx(c)].app;
  const std::int64_t need = state_->containers()[Idx(c)].request.cpu_millis();
  // IL exploits isomorphism between sibling containers; a single-container
  // application has no siblings, so the memo would be pure overhead.
  const bool use_il =
      options.enable_il &&
      state_->applications()[Idx(app)].containers.size() > 1;

  cluster::MachineId best = cluster::MachineId::Invalid();
  std::int64_t best_free = 0;
  // Walk A → G_k → R_x → N_y, pruning aggregates whose residual cannot
  // admit the request.
  for (std::size_t g = 0; g < subcluster_free_.size(); ++g) {
    ++counters.explored_paths;  // G vertex probe
    const auto& gset = subcluster_free_[g];
    if (gset.empty() || *gset.rbegin() < need) continue;
    for (cluster::RackId rack : topology_->SubClusterRacks(
             cluster::SubClusterId(static_cast<std::int32_t>(g)))) {
      ++counters.explored_paths;  // R vertex probe
      if (rack_max_[Idx(rack)] < need) continue;
      for (cluster::MachineId m : topology_->RackMachines(rack)) {
        if (m == exclude) continue;
        if (use_il && IlPruned(app, m)) {
          ++counters.il_prunes;
          continue;
        }
        ++counters.explored_paths;  // N vertex probe
        const CapacityCheck check = CapacityFunction::Evaluate(*state_, c, m);
        if (!check.Admits()) {
          // Memoise only blacklist rejections; fit rejections are cheaper
          // to recompute than to look up.
          if (use_il && check.blacklisted) RecordIlFailure(app, m);
          continue;
        }
        const std::int64_t free = indexed_free_[Idx(m)].cpu_millis();
        if (!best.valid() || free < best_free ||
            (free == best_free && m < best)) {
          best = m;
          best_free = free;
        }
      }
    }
  }
  return best;
}

cluster::MachineId AggregatedNetwork::FindByBestFitWalk(
    cluster::ContainerId c, const SearchOptions& options,
    SearchCounters& counters, cluster::MachineId exclude) {
  const cluster::ApplicationId app = state_->containers()[Idx(c)].app;
  const cluster::ResourceVector& request = state_->containers()[Idx(c)].request;
  const bool use_il =
      options.enable_il &&
      state_->applications()[Idx(app)].containers.size() > 1;

  // lower_bound steps over CPU-infeasible machines; the tuple test below
  // steps over the rest of the Eq. 6-infeasible ones the same way.
  for (auto it = by_free_.lower_bound({request.cpu_millis(), -1});
       it != by_free_.end(); ++it) {
    const cluster::MachineId m(it->second);
    if (!request.FitsIn(indexed_free_[Idx(m)])) continue;
    if (m == exclude) continue;
    if (use_il && IlPruned(app, m)) {
      ++counters.il_prunes;
      continue;
    }
    ++counters.explored_paths;
    // The indexed tuple is the live one: every mutation re-keys eagerly or
    // is replayed by Sync() before a search.
    ALADDIN_DCHECK(state_->Fits(c, m));
    if (!state_->Blacklisted(c, m)) {
      // Depth limiting: this path saturates the container's s→T_i edge;
      // no further path can increase its flow (§IV.A, Fig. 5b).
      ++counters.dl_stops;
      return m;
    }
    if (use_il) RecordIlFailure(app, m);
  }
  return cluster::MachineId::Invalid();
}

}  // namespace aladdin::core
