#!/usr/bin/env python3
"""Validate the three telemetry artifacts a campaign run emits.

Usage:
  tools/validate_telemetry.py --metrics m.json --trace t.json --events e.jsonl \
      [--require-event-types step,guard,ban] [--require-spans ppo/sample,...] \
      [--fleet-report results/fleet_report.json] \
      [--fleet-journal results/fleet_journal.jsonl] \
      [--fleet-status results/fleet_status.json]

Checks (any failure exits 1 with a message naming the file and reason):
  * metrics JSON: top-level {"counters","gauges","histograms"}; counters are
    non-negative integers; histograms carry count/sum/min/max and bucket
    entries with ge < lt; the required PPO series are present.
  * trace JSON: Chrome trace_event format — {"traceEvents":[...]}, every
    event a complete ("ph":"X") event with name/ts/dur/pid/tid; required
    span names present.
  * events JSONL: every line parses as a JSON object with a "type" key;
    required event types present; "step" events carry the stats schema.
  * fleet report JSON: {"type":"fleet_report"} with a summary whose state
    counts match the campaigns array, valid per-campaign states, ordered
    step_rewards, an exit_code consistent with the counts, multi-worker
    counters (preemptions/fenced/sibling) that aggregate the per-campaign
    fields, and a journal hygiene object with zero interior corruption.
  * fleet journal JSONL: every complete line across the journal family
    (the base file plus per-worker `stem.<worker>.jsonl` siblings) is a
    campaign record with a valid state and well-formed lease token/owner
    fields (a torn final line per file — crash frontier — is tolerated).
  * fleet status JSON: {"type":"fleet_status"} whose summary rollups match
    the workers/campaigns arrays, whose hygiene counters are non-negative
    ints, and whose degraded/exit_code fields agree with degraded_reasons;
    when --fleet-journal is also given, every campaign the journal names
    must appear in the status.

Used by tools/ci_check.sh after the instrumented campaign smoke run; also
handy interactively after any --metrics-out/--trace-out/--events-out run.
"""

import argparse
import collections
import json
import os
import sys

FAILURES = []


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


# Metric series the PPO loop always exports (docs/observability.md).
REQUIRED_COUNTERS = [
    "poisonrec_ppo_steps_total",
    "poisonrec_ppo_retries_total",
    "poisonrec_ppo_failed_queries_total",
]
REQUIRED_GAUGES = [
    "poisonrec_ppo_reward_mean",
    "poisonrec_ppo_reward_best",
    "poisonrec_ppo_entropy",
    "poisonrec_ppo_grad_norm",
    "poisonrec_defense_banned_accounts",
]
REQUIRED_HISTOGRAMS = [
    "poisonrec_ppo_reward",
    "poisonrec_ppo_entropy",
    "poisonrec_ppo_grad_norm",
    "poisonrec_ppo_step_seconds",
]

# Keys every {"type":"step"} event record carries (core/ppo.cc).
STEP_EVENT_KEYS = [
    "step", "reward_mean", "reward_max", "reward_best", "loss", "entropy",
    "approx_kl", "grad_norm", "seconds", "sample_seconds", "query_seconds",
    "update_seconds", "other_seconds", "retries", "failed_queries",
]


def check_metrics(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")
        return
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"{path}: missing object section {section!r}")
            return
    for name, value in doc["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: counter {name!r} is not a non-negative int: {value!r}")
    for name in REQUIRED_COUNTERS:
        if name not in doc["counters"]:
            fail(f"{path}: required counter {name!r} missing")
    for name in REQUIRED_GAUGES:
        if name not in doc["gauges"]:
            fail(f"{path}: required gauge {name!r} missing")
    for name in REQUIRED_HISTOGRAMS:
        if name not in doc["histograms"]:
            fail(f"{path}: required histogram {name!r} missing")
    for name, hist in doc["histograms"].items():
        for key in ("count", "sum", "min", "max", "buckets"):
            if key not in hist:
                fail(f"{path}: histogram {name!r} missing {key!r}")
                break
        else:
            total = 0
            for bucket in hist["buckets"]:
                ge, lt = bucket.get("ge"), bucket.get("lt")
                if not (isinstance(ge, (int, float)) and
                        (lt == "inf" or isinstance(lt, (int, float)))):
                    fail(f"{path}: histogram {name!r} has malformed bucket "
                         f"{bucket!r}")
                elif lt != "inf" and not ge < lt:
                    fail(f"{path}: histogram {name!r} bucket bounds not "
                         f"ordered: {bucket!r}")
                total += bucket.get("count", 0)
            if total != hist["count"]:
                fail(f"{path}: histogram {name!r} bucket counts sum to "
                     f"{total}, expected count={hist['count']}")
    print(f"{path}: {len(doc['counters'])} counters, {len(doc['gauges'])} "
          f"gauges, {len(doc['histograms'])} histograms")


def check_trace(path, require_spans):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")
        return
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: missing traceEvents array")
        return
    names = collections.Counter()
    for i, e in enumerate(events):
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in e:
                fail(f"{path}: event #{i} missing {key!r}: {e!r}")
                return
        if e["ph"] != "X":
            fail(f"{path}: event #{i} is not a complete event: ph={e['ph']!r}")
        if e["ts"] < 0 or e["dur"] < 0:
            fail(f"{path}: event #{i} has negative ts/dur: {e!r}")
        names[e["name"]] += 1
    for span in require_spans:
        if names[span] == 0:
            fail(f"{path}: required span {span!r} absent "
                 f"(have: {sorted(names)})")
    print(f"{path}: {len(events)} spans across "
          f"{len(set(e['tid'] for e in events))} thread(s): "
          f"{dict(sorted(names.items()))}")


def check_events(path, require_types):
    types = collections.Counter()
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: not readable: {e}")
        return
    if not lines:
        fail(f"{path}: empty event stream")
        return
    for lineno, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{lineno}: unparseable line: {e}")
            continue
        if not isinstance(record, dict) or "type" not in record:
            fail(f"{path}:{lineno}: record has no 'type' key")
            continue
        types[record["type"]] += 1
        if record["type"] == "step":
            missing = [k for k in STEP_EVENT_KEYS if k not in record]
            if missing:
                fail(f"{path}:{lineno}: step event missing keys {missing}")
    for t in require_types:
        if types[t] == 0:
            fail(f"{path}: required event type {t!r} absent "
                 f"(have: {dict(sorted(types.items()))})")
    print(f"{path}: {len(lines)} events: {dict(sorted(types.items()))}")


# States the fleet journal / report may record (orch/journal.h).
FLEET_STATES = {
    "pending", "running", "checkpointed", "done", "quarantined", "failed",
    "preempted",
}
FLEET_TERMINAL_STATES = {"done", "quarantined", "failed"}
FLEET_CAMPAIGN_KEYS = [
    "id", "state", "steps_completed", "restarts", "rollbacks", "best_reward",
    "wall_seconds", "interrupted", "recovered", "step_rewards",
    "preemptions", "fenced", "sibling", "token",
]
FLEET_JOURNAL_COUNTER_KEYS = [
    "files_merged", "malformed_lines", "torn_tail_lines", "stale_records",
    "corrupt_lines", "skipped_records", "checkpoints_quarantined",
]


def check_fleet_report(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")
        return
    if doc.get("type") != "fleet_report":
        fail(f"{path}: type is {doc.get('type')!r}, expected 'fleet_report'")
        return
    summary = doc.get("summary")
    campaigns = doc.get("campaigns")
    if not isinstance(summary, dict) or not isinstance(campaigns, list):
        fail(f"{path}: missing summary object / campaigns array")
        return
    counts = collections.Counter()
    for i, c in enumerate(campaigns):
        missing = [k for k in FLEET_CAMPAIGN_KEYS if k not in c]
        if missing:
            fail(f"{path}: campaign #{i} missing keys {missing}")
            continue
        if c["state"] not in FLEET_STATES:
            fail(f"{path}: campaign {c['id']!r} has unknown state "
                 f"{c['state']!r}")
        counts[c["state"]] += 1
        if c["interrupted"]:
            counts["interrupted"] += 1
        if c["recovered"]:
            counts["recovered"] += 1
        if not isinstance(c["token"], int) or c["token"] < 0:
            fail(f"{path}: campaign {c['id']!r} has a non-integer lease "
                 f"token: {c['token']!r}")
        if not isinstance(c["preemptions"], int) or c["preemptions"] < 0:
            fail(f"{path}: campaign {c['id']!r} preemptions is not a "
                 f"non-negative int: {c['preemptions']!r}")
        counts["preemption_total"] += c["preemptions"] \
            if isinstance(c["preemptions"], int) else 0
        if c["fenced"]:
            counts["fenced"] += 1
        if c["sibling"]:
            counts["sibling"] += 1
        rewards = c["step_rewards"]
        steps = [entry[0] for entry in rewards]
        if any(len(entry) != 2 for entry in rewards):
            fail(f"{path}: campaign {c['id']!r} has a malformed "
                 f"step_rewards entry (want [step, reward] pairs)")
        elif steps != sorted(steps) or len(set(steps)) != len(steps):
            fail(f"{path}: campaign {c['id']!r} step_rewards not strictly "
                 f"increasing in step: {steps}")
        if len(rewards) != c["steps_completed"]:
            fail(f"{path}: campaign {c['id']!r} has {len(rewards)} "
                 f"step_rewards but steps_completed={c['steps_completed']}")
    if summary.get("campaigns") != len(campaigns):
        fail(f"{path}: summary.campaigns={summary.get('campaigns')!r} but "
             f"campaigns array has {len(campaigns)} entries")
    # The summary counts interrupted campaigns separately from their
    # journal state: a checkpointed/interrupted campaign contributes to
    # `interrupted`, never to done/quarantined/failed.
    for key in ("done", "quarantined", "failed"):
        expected = sum(1 for c in campaigns
                       if c.get("state") == key and not c.get("interrupted"))
        if summary.get(key) != expected:
            fail(f"{path}: summary.{key}={summary.get(key)!r}, expected "
                 f"{expected} from the campaigns array")
    expected_interrupted = sum(
        1 for c in campaigns
        if c.get("interrupted") or c.get("state") in
        ("pending", "running", "checkpointed", "preempted"))
    if summary.get("interrupted") != expected_interrupted:
        fail(f"{path}: summary.interrupted={summary.get('interrupted')!r}, "
             f"expected {expected_interrupted}")
    if summary.get("recovered") != counts["recovered"]:
        fail(f"{path}: summary.recovered={summary.get('recovered')!r}, "
             f"expected {counts['recovered']}")
    # Shared-fleet counters: the summary totals must match the per-campaign
    # fields they aggregate (orch/fleet.cc folds them the same way).
    for key, expected in (("preemptions", counts["preemption_total"]),
                          ("fenced", counts["fenced"]),
                          ("sibling", counts["sibling"])):
        if summary.get(key) != expected:
            fail(f"{path}: summary.{key}={summary.get(key)!r}, expected "
                 f"{expected} from the campaigns array")
    journal = doc.get("journal")
    if not isinstance(journal, dict):
        fail(f"{path}: missing journal hygiene object")
    else:
        for key in FLEET_JOURNAL_COUNTER_KEYS:
            value = journal.get(key)
            if not isinstance(value, int) or value < 0:
                fail(f"{path}: journal.{key} is not a non-negative int: "
                     f"{value!r}")
        if isinstance(journal.get("malformed_lines"), int) \
                and journal["malformed_lines"] > 0:
            fail(f"{path}: journal.malformed_lines="
                 f"{journal['malformed_lines']} — interior journal "
                 f"corruption (a torn tail would be torn_tail_lines)")
        if isinstance(journal.get("corrupt_lines"), int) \
                and journal["corrupt_lines"] > 0:
            fail(f"{path}: journal.corrupt_lines="
                 f"{journal['corrupt_lines']} — interior line-checksum "
                 f"mismatch (bit rot in an append-only journal)")
        malformed = journal.get("malformed_lines")
        corrupt = journal.get("corrupt_lines")
        skipped = journal.get("skipped_records")
        if all(isinstance(v, int) for v in (malformed, corrupt, skipped)) \
                and skipped != malformed + corrupt:
            fail(f"{path}: journal.skipped_records={skipped!r}, expected "
                 f"malformed_lines+corrupt_lines={malformed + corrupt}")
    exit_code = summary.get("exit_code")
    partial = (summary.get("quarantined", 0) + summary.get("failed", 0) +
               summary.get("interrupted", 0))
    expected_exit = 2 if partial > 0 else 0
    if exit_code != expected_exit:
        fail(f"{path}: summary.exit_code={exit_code!r}, expected "
             f"{expected_exit} (quarantined+failed+interrupted={partial})")
    print(f"{path}: {len(campaigns)} campaigns "
          f"({dict(sorted(counts.items()))}), exit_code={exit_code}")


def list_journal_files(base):
    """The journal family for a base path: the base file itself plus the
    per-worker sibling files fleet workers append (`stem.<worker>.ext`,
    e.g. journal.w812-3f.jsonl). Mirrors FleetJournal::ListJournalFiles."""
    directory = os.path.dirname(base) or "."
    name = os.path.basename(base)
    stem, ext = os.path.splitext(name)
    files = []
    try:
        entries = os.listdir(directory)
    except OSError:
        return [base]
    for entry in entries:
        if entry == name or (entry.startswith(stem + ".") and
                             entry.endswith(ext) and
                             len(entry) > len(stem) + len(ext) + 1):
            files.append(os.path.join(directory, entry))
    return sorted(files) or [base]


def check_fleet_journal(path):
    """Validates the journal family; returns the set of campaign ids it
    names (for the --fleet-status cross-check)."""
    files = list_journal_files(path)
    states = collections.Counter()
    campaign_ids = set()
    total_lines = 0
    for journal_path in files:
        try:
            with open(journal_path) as f:
                lines = f.read().splitlines()
        except OSError as e:
            fail(f"{journal_path}: not readable: {e}")
            continue
        total_lines += len(lines)
        for lineno, line in enumerate(lines, 1):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                # A torn final line is the expected crash frontier (one per
                # file — a killed worker tears at most its own tail);
                # anything earlier means append-only discipline was
                # violated.
                if lineno == len(lines):
                    print(f"{journal_path}:{lineno}: torn trailing record "
                          f"(tolerated)")
                    continue
                fail(f"{journal_path}:{lineno}: unparseable non-final "
                     f"line: {e}")
                continue
            if not isinstance(record, dict) \
                    or record.get("type") != "campaign" \
                    or "id" not in record or "state" not in record:
                fail(f"{journal_path}:{lineno}: record lacks type/id/state "
                     f"keys")
                continue
            if record["state"] not in FLEET_STATES:
                fail(f"{journal_path}:{lineno}: unknown state "
                     f"{record['state']!r}")
            token = record.get("token")
            if token is not None and (not isinstance(token, int)
                                      or token < 0):
                fail(f"{journal_path}:{lineno}: lease token is not a "
                     f"non-negative int: {token!r}")
            owner = record.get("owner")
            if owner is not None and (not isinstance(owner, str)
                                      or not owner):
                fail(f"{journal_path}:{lineno}: owner is not a non-empty "
                     f"string: {owner!r}")
            states[record["state"]] += 1
            if isinstance(record.get("id"), str):
                campaign_ids.add(record["id"])
    if total_lines == 0:
        fail(f"{path}: empty journal family ({len(files)} file(s))")
        return campaign_ids
    print(f"{path}: {total_lines} records across {len(files)} file(s): "
          f"{dict(sorted(states.items()))}")
    return campaign_ids


# Health classes a fleet status worker row may carry (orch/status.h).
STATUS_WORKER_HEALTH = {"live", "stale", "exited"}
STATUS_WORKER_KEYS = [
    "worker", "health", "pid", "host", "seq", "wall_unix", "uptime_seconds",
    "age_seconds", "publish_period_seconds", "shutdown", "snapshot",
]
STATUS_CAMPAIGN_KEYS = [
    "id", "state", "owner", "token", "step", "total", "last_reward",
    "best_reward", "restarts", "preemptions", "step_rate", "eta_seconds",
    "running", "lease_held", "lease_expired", "stalled",
]
STATUS_HYGIENE_KEYS = [
    "snapshots_ok", "snapshots_torn", "snapshots_corrupt",
    "snapshots_invalid", "leases_ok", "leases_damaged",
    "journal_files_merged", "journal_malformed_lines",
    "journal_torn_tail_lines", "journal_corrupt_lines",
    "journal_stale_records",
]
STATUS_SUMMARY_KEYS = [
    "workers", "workers_live", "workers_stale", "workers_exited",
    "campaigns", "campaigns_by_state", "aggregate_step_rate",
]


def check_fleet_status(path, journal_campaign_ids=None):
    """Validates a `poisonrec fleet --status --status-json` export; when
    the journal family was also validated, cross-checks that the status
    names every campaign the journal knows about."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")
        return
    if doc.get("type") != "fleet_status":
        fail(f"{path}: type is {doc.get('type')!r}, expected 'fleet_status'")
        return
    summary = doc.get("summary")
    hygiene = doc.get("hygiene")
    workers = doc.get("workers")
    campaigns = doc.get("campaigns")
    reasons = doc.get("degraded_reasons")
    if not isinstance(summary, dict) or not isinstance(hygiene, dict) \
            or not isinstance(workers, list) \
            or not isinstance(campaigns, list) \
            or not isinstance(reasons, list):
        fail(f"{path}: missing summary/hygiene objects or "
             f"workers/campaigns/degraded_reasons arrays")
        return
    for key in STATUS_SUMMARY_KEYS:
        if key not in summary:
            fail(f"{path}: summary missing {key!r}")
    for key in STATUS_HYGIENE_KEYS:
        value = hygiene.get(key)
        if not isinstance(value, int) or value < 0:
            fail(f"{path}: hygiene.{key} is not a non-negative int: "
                 f"{value!r}")

    health = collections.Counter()
    for i, w in enumerate(workers):
        missing = [k for k in STATUS_WORKER_KEYS if k not in w]
        if missing:
            fail(f"{path}: worker #{i} missing keys {missing}")
            continue
        if w["health"] not in STATUS_WORKER_HEALTH:
            fail(f"{path}: worker {w['worker']!r} has unknown health "
                 f"{w['health']!r}")
            continue
        health[w["health"]] += 1
        if w["health"] != "exited" and w["shutdown"]:
            fail(f"{path}: worker {w['worker']!r} says shutdown but is "
                 f"classified {w['health']!r}")
    for key, cls in (("workers_live", "live"), ("workers_stale", "stale"),
                     ("workers_exited", "exited")):
        if summary.get(key) != health[cls]:
            fail(f"{path}: summary.{key}={summary.get(key)!r}, expected "
                 f"{health[cls]} from the workers array")
    if summary.get("workers") != len(workers):
        fail(f"{path}: summary.workers={summary.get('workers')!r} but "
             f"workers array has {len(workers)} entries")

    by_state = collections.Counter()
    status_ids = set()
    for i, c in enumerate(campaigns):
        missing = [k for k in STATUS_CAMPAIGN_KEYS if k not in c]
        if missing:
            fail(f"{path}: campaign #{i} missing keys {missing}")
            continue
        if c["state"] not in FLEET_STATES:
            fail(f"{path}: campaign {c['id']!r} has unknown state "
                 f"{c['state']!r}")
            continue
        by_state[c["state"]] += 1
        status_ids.add(c["id"])
        if c["running"] and not c["owner"]:
            fail(f"{path}: campaign {c['id']!r} is running but has no owner")
        if c["lease_expired"] and not c["lease_held"]:
            fail(f"{path}: campaign {c['id']!r} lease_expired without "
                 f"lease_held")
        if isinstance(c.get("total"), int) and isinstance(c.get("step"), int) \
                and 0 < c["total"] < c["step"]:
            fail(f"{path}: campaign {c['id']!r} step={c['step']} exceeds "
                 f"total={c['total']}")
    if summary.get("campaigns") != len(campaigns):
        fail(f"{path}: summary.campaigns={summary.get('campaigns')!r} but "
             f"campaigns array has {len(campaigns)} entries")
    if isinstance(summary.get("campaigns_by_state"), dict) \
            and summary["campaigns_by_state"] != dict(by_state):
        fail(f"{path}: summary.campaigns_by_state="
             f"{summary['campaigns_by_state']!r}, expected "
             f"{dict(by_state)} from the campaigns array")

    degraded = doc.get("degraded")
    exit_code = doc.get("exit_code")
    if degraded != bool(reasons):
        fail(f"{path}: degraded={degraded!r} but degraded_reasons has "
             f"{len(reasons)} entries")
    if exit_code != (2 if reasons else 0):
        fail(f"{path}: exit_code={exit_code!r} inconsistent with "
             f"{len(reasons)} degraded reason(s)")

    if journal_campaign_ids is not None:
        missing = sorted(journal_campaign_ids - status_ids)
        if missing:
            fail(f"{path}: journal names campaigns absent from the status: "
                 f"{missing}")
    print(f"{path}: {len(workers)} worker(s) ({dict(sorted(health.items()))}),"
          f" {len(campaigns)} campaign(s) ({dict(sorted(by_state.items()))}),"
          f" exit_code={exit_code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--metrics", help="metrics snapshot JSON (m.json)")
    parser.add_argument("--trace", help="Chrome trace JSON (t.json)")
    parser.add_argument("--events", help="structured event JSONL (e.jsonl)")
    parser.add_argument("--require-event-types", default="step",
                        help="comma-separated event types that must appear")
    parser.add_argument("--require-spans",
                        default="ppo/step,ppo/sample,ppo/query,ppo/update",
                        help="comma-separated span names that must appear")
    parser.add_argument("--fleet-report",
                        help="fleet orchestrator report JSON")
    parser.add_argument("--fleet-journal",
                        help="fleet orchestrator journal JSONL")
    parser.add_argument("--fleet-status",
                        help="fleet --status --status-json export")
    args = parser.parse_args()
    if not (args.metrics or args.trace or args.events or args.fleet_report
            or args.fleet_journal or args.fleet_status):
        parser.error("nothing to validate: pass --metrics/--trace/--events/"
                     "--fleet-report/--fleet-journal/--fleet-status")

    if args.metrics:
        check_metrics(args.metrics)
    if args.trace:
        spans = [s for s in args.require_spans.split(",") if s]
        check_trace(args.trace, spans)
    if args.events:
        types = [t for t in args.require_event_types.split(",") if t]
        check_events(args.events, types)
    if args.fleet_report:
        check_fleet_report(args.fleet_report)
    journal_ids = None
    if args.fleet_journal:
        journal_ids = check_fleet_journal(args.fleet_journal)
    if args.fleet_status:
        check_fleet_status(args.fleet_status, journal_ids)

    if FAILURES:
        print(f"validate_telemetry: {len(FAILURES)} failure(s)",
              file=sys.stderr)
        return 1
    print("validate_telemetry: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
