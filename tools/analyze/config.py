"""Rule scoping for aladdin-analyze.

Everything here is policy, not mechanism: which directories are decision
path, which types are sanctioned scratch, which files are exempt from a
rule and *why*. Each exemption carries its reason inline — `--list-allows`
prints this table together with the in-source analyze:allow markers so the
whole suppression inventory is one command away.
"""

from __future__ import annotations

import fnmatch

# --------------------------------------------------------------------------
# D1 — determinism
# --------------------------------------------------------------------------

# Decision-path scope: everything under src/ is in scope; exemptions below
# carve out the sanctioned wrappers. tests/, bench/ and tools/ are out of
# scope (a test may hash-iterate all it wants).
D1_SCOPE = ("src/",)

# Files allowed to touch nondeterministic *sources* because they exist to
# wrap them behind deterministic (seeded / monotonic / stats-only) APIs.
D103_EXEMPT = {
    "src/common/rng.h": "seeded PRNG wrapper — the one sanctioned source",
    "src/common/rng.cpp": "seeded PRNG wrapper — the one sanctioned source",
    "src/common/timer.h": "WallTimer wraps steady_clock for stats-only use",
    "src/obs/metrics.cpp": "MonotonicNowNs: trace/phase timestamps, "
                           "never scheduling inputs",
    "src/obs/trace.cpp": "trace epoch timestamps are observability-only",
}

# --------------------------------------------------------------------------
# A1 — allocation discipline on the hot path
# --------------------------------------------------------------------------

# Types whose methods are allowed on the hot path even though they *may*
# allocate: their growth is amortised against high-water marks that the
# zero-alloc steady-state tests (ZeroAllocSteadyState.* in
# tests/test_equivalence.cpp) pin at runtime.
A1_EXEMPT_CLASSES = {"Workspace", "StampedArray", "RingQueue"}

# Callees never followed by the transitive walk. Mostly: runtime-gated
# validation and instrumentation that is documented cold-per-tick. Each
# entry is (qualified-name substring) -> reason.
A1_EXEMPT_CALLEES = {
    "CheckFail": "failure path — allocation while dying is fine",
    "DcheckFail": "failure path — allocation while dying is fine",
    "CrossCheckOutcome": "post-solve audit, compiled out of release builds "
                         "(ALADDIN_DCHECK_IS_ON regions)",
    "CheckConsistency": "full-state validation scan, run under DCHECK "
                        "builds / --audit only",
    "ValidateInvariants": "graph validation, run under DCHECK builds / "
                          "explicit test calls only",
}

# Cold functions reachable from hot roots, keyed "<defining file>:<name>" —
# the unqualified name, because the lexer backend qualifies an out-of-line
# member without its class, so file + name is what both backends agree on.
# The walk neither flags nor descends into them. Each is an attach, rebuild
# or once-per-process arm that a steady-state tick never runs; the reason
# says which.
A1_COLD_FUNCTIONS = {
    "src/cluster/shard.cpp:Build":
        "ShardPlan::Build partitions the topology; only AttachShards calls "
        "it",
    "src/cluster/state.cpp:ClusterState":
        "constructors run on a resolver rebuild (topology change, via "
        "Workload::MakeState) or a shard attach (ShardView), never per tick",
    "src/core/sharded.cpp:AttachShards":
        "runs only when Schedule() meets a new state (instance id change); "
        "every later tick takes SyncShards",
    "src/core/sharded.cpp:SolvePool":
        "creates the shard-solve pool once (pool_created_ guard); later "
        "calls return the cached pointer",
    "src/core/scheduler.cpp:name":
        "AladdinScheduler::name() builds a display string; on the solve "
        "path only PrepareWeights' Eq. 5 violation warning calls it",
}

# Files (exact path or trailing-slash prefix) whose functions the walk does
# not descend into / flag. These are reachable from hot roots but run under
# explicit runtime gates (flags or DCHECK builds), so their allocations are
# not steady-state allocations — or they are reference implementations whose
# allocation behaviour is deliberately preserved.
A1_EXEMPT_FILES = {
    "src/baselines/": "reference baselines (Firmament/Medea/Go-Kube) keep "
                      "their papers' allocation behaviour — the benches "
                      "measure them as-is",
    "src/cluster/audit.cpp": "post-solve audit, gated by --audit/DCHECK",
    "src/obs/journal.cpp": "journal emission, gated by --journal",
    "src/obs/trace.cpp": "trace emission, gated by --trace",
    "src/obs/metrics.cpp": "interning is once-per-callsite via static refs",
    "src/common/log.cpp": "logging: rate-limited, off the steady-state path",
    "src/common/check.cpp": "CHECK failure formatting — terminating path",
    "src/common/bench_json.cpp": "bench output, never inside a tick",
    "src/common/stats.cpp": "summary statistics at run end",
}

# A104 (nested vector-of-vectors) keeps the old lint rule's file scope: the
# flow kernels, where vector<vector<>> was the historic CSR-regression shape.
A104_GLOB = "src/flow/*"

# --------------------------------------------------------------------------
# L1 — locking discipline
# --------------------------------------------------------------------------

# The concurrency surface: every file that owns a mutex. L101-L103 check
# these; L104 (raw std::mutex outside the annotated wrapper) applies to all
# of src/ so new code cannot silently opt out of -Wthread-safety.
L1_SURFACE = (
    "src/common/thread_pool.h",
    "src/common/thread_pool.cpp",
    "src/common/log.cpp",
    "src/obs/metrics.h",
    "src/obs/metrics.cpp",
    "src/obs/trace.cpp",
    "src/obs/journal.cpp",
    "src/obs/export.h",
    "src/obs/export.cpp",
)
L104_EXEMPT = {
    "src/common/mutex.h": "the annotated wrapper itself",
}

# --------------------------------------------------------------------------
# E1 — closed-enum exhaustiveness (scope: all of src/)
# --------------------------------------------------------------------------

E1_SCOPE = ("src/",)

# Enumerators that are counters/sentinels, not values a switch must cover.
E1_SENTINELS = {"kCount", "kNumValues", "kMax"}


def in_scope(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(path.startswith(p) for p in prefixes)


def file_exempt(path: str, table: dict[str, str]) -> bool:
    """Exact path or directory-prefix (trailing '/') membership."""
    if path in table:
        return True
    return any(key.endswith("/") and path.startswith(key) for key in table)


def matches(path: str, glob: str) -> bool:
    return fnmatch.fnmatch(path, glob)
