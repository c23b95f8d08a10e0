#!/usr/bin/env python3
"""Validate a decision journal produced by --journal=FILE (obs/journal.h).

Checks, in order:

  * every line parses as a flat JSON record with the full field set
    (seq/tick/kind/cause/container/machine/other/detail) and a kind/cause
    drawn from the closed vocabularies;
  * seq is strictly increasing across the file — the sink drains rings in
    seq order, so any regression means records were lost or interleaved;
  * ticks are monotone non-decreasing (SetJournalTick only moves forward);
  * terminal records are well-formed: place/migrate carry a machine >= 0,
    migrate carries a source (`other` >= 0), preempt carries an aggressor;
  * the optional `shard` field (stamped by core::ShardedScheduler; absent
    on unsharded and K=1 runs) is an integer >= -1, and seq is strictly
    increasing *within* each shard's record stream too — the coordinator
    replays each shard's capture buffer in order from a serial section, so
    a per-shard regression means a capture was split or interleaved;
  * every container whose *final* terminal record is a give-up carries a
    cause other than "none" — the acceptance bar behind
    `explain.py --why-unplaced`. With --no-catch-all, "no_admissible_path"
    and "baseline_unplaced" also fail (use on Aladdin runs, where the
    terminal diagnosis must be specific);
  * lifecycle event shapes (obs/lifecycle.h + obs/slo.h): pod_arrived
    carries an app and an epoch, shard_routed/shard_spilled carry a target
    shard with round 0 / round >= 1, slo_violated carries an age >= 1;
  * batch_deferred (k8s resolver --batch_deadline_ticks) carries the
    number of deferred containers (`detail` >= 1);
  * lifecycle *span* checks — epochs per pod count up consecutively from
    0, failed attempts never precede their epoch's arrival (pending-age is
    monotone), at most one slo_violated per epoch with an age consistent
    with the arrival tick, and no placement without a prior arrival. These
    need every record of a pod's history, so they only run when the
    journal is complete (seq 0..N-1, no gaps): per-thread rings drop
    records under extreme load — raise --journal_ring on such runs;
  * watchdog alert shapes (obs/watchdog.h): alert_opened carries an
    alert id (`container` >= 0) and a kind index (`machine`) inside the
    closed AlertKind vocabulary. Pairing checks run on complete journals
    only (same bar as the span checks): an alert id opens at most once and
    resolves at most once, a resolve always follows its open with matching
    kind and subject and a duration (`detail`) equal to resolve tick minus
    open tick, and at most one alert per (kind, subject) is open at a time
    — the hysteresis contract behind `explain.py --alerts`.

Exit status 0 = valid; 1 = violations (one per line).

Usage:
  tools/check_journal.py RUN.journal.jsonl [--no-catch-all]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

KINDS = {"place", "reject", "migrate", "preempt", "unplaced", "event"}
CAUSES = {
    "none", "admitted_direct", "admitted_after_repair", "short_lived_best_fit",
    "capacity_exhausted_cpu", "capacity_exhausted_mem",
    "anti_affinity_intra_app", "anti_affinity_inter_app",
    "no_admissible_path", "repair_attempt_budget", "migrated_for_repair",
    "migrated_for_rebalance", "preempted_by_priority", "depth_limit_stop",
    "isomorphism_prune", "pod_retired", "baseline_unplaced",
    "pod_arrived", "shard_routed", "shard_spilled", "slo_violated",
    "batch_deferred", "alert_opened", "alert_resolved",
}
# Closed AlertKind vocabulary (obs/watchdog.h); alert_opened/alert_resolved
# records carry the kind as an index in `machine`.
ALERT_KINDS = ("slo_burn_rate", "pending_age_drift", "app_flapping",
               "shard_imbalance", "solve_regression", "cause_mix_shift")
CATCH_ALL = {"no_admissible_path", "baseline_unplaced"}
FIELDS = ("seq", "tick", "kind", "cause", "container", "machine", "other",
          "detail")
TERMINAL_PLACED = {"place", "migrate"}
TERMINAL_PENDING = {"preempt", "unplaced"}


def validate(lines: list[str], no_catch_all: bool = False) -> list[str]:
    errors: list[str] = []
    last_seq = None
    last_tick = None
    last_seq_by_shard: dict[int, int] = {}
    final: dict[int, tuple[int, str, str]] = {}  # container -> (line, kind, cause)
    records = 0
    # Lifecycle span state (container -> open-epoch bookkeeping). Span
    # errors are collected apart and only reported when the journal is
    # complete: a ring-dropped arrival would fabricate violations.
    span_errors: list[str] = []
    spans: dict[int, dict] = {}
    first_seq = None
    seq_ok = True
    # Watchdog alert pairing state. Like the span checks, pairing errors
    # are only reported on complete journals: a ring-dropped open would
    # fabricate an "resolved without an open" violation.
    alert_errors: list[str] = []
    open_alerts: dict[int, tuple[int, int, int]] = {}  # id -> (kind, subj, tick)
    closed_alerts: set[int] = set()
    open_alert_keys: dict[tuple[int, int], int] = {}  # (kind, subj) -> id
    alerts_seen = False
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"line {lineno}"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            errors.append(f"{where}: not JSON ({error})")
            continue
        missing = [f for f in FIELDS if f not in record]
        if missing:
            errors.append(f"{where}: missing field(s) {missing}")
            continue
        records += 1
        kind = record["kind"]
        cause = record["cause"]
        if kind not in KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
        if cause not in CAUSES:
            errors.append(f"{where}: unknown cause {cause!r}")

        seq = record["seq"]
        if first_seq is None:
            first_seq = seq
        if last_seq is not None and seq <= last_seq:
            errors.append(f"{where}: seq {seq} does not increase past "
                          f"{last_seq}")
            seq_ok = False
        last_seq = seq
        tick = record["tick"]
        if last_tick is not None and tick < last_tick:
            errors.append(f"{where}: tick {tick} regresses below {last_tick}")
        last_tick = tick

        shard = record.get("shard", -1)
        if not isinstance(shard, int) or shard < -1:
            errors.append(f"{where}: shard {shard!r} is not an integer >= -1")
        else:
            prev = last_seq_by_shard.get(shard)
            if prev is not None and seq <= prev:
                errors.append(f"{where}: shard {shard} seq {seq} does not "
                              f"increase past {prev}")
            last_seq_by_shard[shard] = seq

        if kind in ("place", "migrate") and record["machine"] < 0:
            errors.append(f"{where}: {kind} without a destination machine")
        if kind == "migrate" and record["other"] < 0:
            errors.append(f"{where}: migrate without a source machine")
        if kind == "preempt" and record["other"] < 0:
            errors.append(f"{where}: preempt without an aggressor container")

        container = record["container"]
        if container >= 0 and kind in TERMINAL_PLACED | TERMINAL_PENDING:
            final[container] = (lineno, kind, cause)

        # Lifecycle event shapes (always on) and span bookkeeping (only
        # reported when the journal turns out to be complete).
        if kind == "event" and cause == "pod_arrived":
            if record["other"] < 0:
                errors.append(f"{where}: pod_arrived without an app")
            span = spans.get(container)
            expected = 0 if span is None else span["epoch"] + 1
            if record["detail"] != expected:
                span_errors.append(f"{where}: container {container} opens "
                                   f"epoch {record['detail']} (expected "
                                   f"{expected})")
            spans[container] = {"arrival": tick, "epoch": record["detail"],
                                "flagged": False}
        elif kind == "event" and cause == "shard_routed":
            if record["other"] < 0:
                errors.append(f"{where}: shard_routed without a target "
                              f"shard")
            if record["detail"] != 0:
                errors.append(f"{where}: shard_routed with round "
                              f"{record['detail']} (spills use "
                              f"shard_spilled)")
        elif kind == "event" and cause == "shard_spilled":
            if record["other"] < 0:
                errors.append(f"{where}: shard_spilled without a target "
                              f"shard")
            if record["detail"] < 1:
                errors.append(f"{where}: shard_spilled in round "
                              f"{record['detail']} (first routing is "
                              f"shard_routed)")
        elif kind == "event" and cause == "slo_violated":
            if record["detail"] < 1:
                errors.append(f"{where}: slo_violated with age "
                              f"{record['detail']}")
            span = spans.get(container)
            if span is None:
                span_errors.append(f"{where}: slo_violated for container "
                                   f"{container} with no open span")
            else:
                if span["flagged"]:
                    span_errors.append(f"{where}: container {container} "
                                       f"flagged twice in epoch "
                                       f"{span['epoch']}")
                span["flagged"] = True
                age = record["detail"]
                # Pending crossing: age = tick - arrival + 1; late-placement
                # flag at admission: age = wait = tick - arrival.
                if age not in (tick - span["arrival"],
                               tick - span["arrival"] + 1):
                    span_errors.append(f"{where}: container {container} "
                                       f"slo_violated age {age} at tick "
                                       f"{tick} inconsistent with arrival "
                                       f"tick {span['arrival']}")
        elif kind == "event" and cause == "batch_deferred":
            if record["detail"] < 1:
                errors.append(f"{where}: batch_deferred with count "
                              f"{record['detail']}")
        elif kind == "event" and cause == "alert_opened":
            alerts_seen = True
            alert_id = record["container"]
            kind_index = record["machine"]
            subject = record["other"]
            if alert_id < 0:
                errors.append(f"{where}: alert_opened without an alert id")
            if not 0 <= kind_index < len(ALERT_KINDS):
                errors.append(f"{where}: alert_opened with kind index "
                              f"{kind_index} outside the AlertKind "
                              f"vocabulary")
                continue
            if alert_id in open_alerts or alert_id in closed_alerts:
                alert_errors.append(f"{where}: alert {alert_id} opened "
                                    f"twice")
                continue
            key = (kind_index, subject)
            if key in open_alert_keys:
                alert_errors.append(f"{where}: second open "
                                    f"{ALERT_KINDS[kind_index]} alert for "
                                    f"subject {subject} (alert "
                                    f"{open_alert_keys[key]} is still open)")
            open_alerts[alert_id] = (kind_index, subject, tick)
            open_alert_keys[key] = alert_id
        elif kind == "event" and cause == "alert_resolved":
            alerts_seen = True
            alert_id = record["container"]
            opened = open_alerts.pop(alert_id, None)
            if opened is None:
                alert_errors.append(f"{where}: alert {alert_id} resolved "
                                    f"without an open")
                continue
            closed_alerts.add(alert_id)
            kind_index, subject, opened_tick = opened
            open_alert_keys.pop((kind_index, subject), None)
            if record["machine"] != kind_index:
                alert_errors.append(f"{where}: alert {alert_id} resolved "
                                    f"with kind index {record['machine']} "
                                    f"but opened as {ALERT_KINDS[kind_index]}")
            if record["other"] != subject:
                alert_errors.append(f"{where}: alert {alert_id} resolved "
                                    f"with subject {record['other']} but "
                                    f"opened on subject {subject}")
            if record["detail"] != tick - opened_tick:
                alert_errors.append(f"{where}: alert {alert_id} resolved "
                                    f"with duration {record['detail']} but "
                                    f"opened at tick {opened_tick} and "
                                    f"resolved at tick {tick}")
        elif kind in ("reject", "unplaced") and container >= 0:
            span = spans.get(container)
            if span is not None and tick < span["arrival"]:
                span_errors.append(f"{where}: container {container} attempt "
                                   f"at tick {tick} precedes its arrival "
                                   f"tick {span['arrival']} (pending-age "
                                   f"regresses)")
        elif kind == "place" and spans and container not in spans:
            span_errors.append(f"{where}: container {container} placed "
                               f"without a lifecycle arrival")

    if records == 0:
        errors.append("no records")
    # Span checks need the full history: only meaningful when the seq space
    # has no gaps (rings drop under extreme load; see --journal_ring).
    complete = (records > 0 and seq_ok and first_seq == 0 and
                last_seq == records - 1)
    if spans and complete:
        errors.extend(span_errors)
    if alerts_seen and complete:
        errors.extend(alert_errors)
    for container, (lineno, kind, cause) in sorted(final.items()):
        if kind not in TERMINAL_PENDING:
            continue
        if cause == "none":
            errors.append(f"line {lineno}: container {container} finished "
                          f"unplaced with no cause")
        elif no_catch_all and kind == "unplaced" and cause in CATCH_ALL:
            errors.append(f"line {lineno}: container {container} finished "
                          f"unplaced with catch-all cause {cause!r}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("journal", type=Path)
    parser.add_argument("--no-catch-all", action="store_true",
                        help="fail terminal give-ups with catch-all causes "
                             "(Aladdin runs must diagnose specifically)")
    args = parser.parse_args()

    try:
        lines = args.journal.read_text(encoding="utf-8").split("\n")
    except OSError as error:
        print(f"check_journal: {args.journal}: {error}", file=sys.stderr)
        return 1

    errors = validate(lines, no_catch_all=args.no_catch_all)
    if errors:
        print(f"check_journal: {args.journal}: {len(errors)} violation(s)",
              file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    records = sum(1 for line in lines if line.strip())
    print(f"check_journal: {args.journal}: OK — {records} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
