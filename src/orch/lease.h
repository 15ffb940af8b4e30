// Campaign leases: cross-process mutual exclusion + fencing for
// `poisonrec fleet`. Every fleet run claims its campaigns through these
// leases, so any number of orchestrator processes (one is just a
// one-worker fleet) can share one plan over one journal/checkpoint
// directory.
//
// One durable JSON file per campaign (`LeaseDir(checkpoint_dir)/<id>.lease`):
//
//   { "type": "lease", "campaign_id": "...", "owner": "w1-8712-5f2c...",
//     "pid": 8712, "token": 3, "renewed_unix": 1754640000.123,
//     "ttl_seconds": 2.0 }
//
// Lifecycle:
//
//          Acquire (free / released)           Renew (heartbeat, <= ttl/3)
//   ┌──────────────────────────────┐   ┌───┐
//   │                              v   v   │
//   free ──> HELD by owner O, token T ──────> Release (owner="", token T)
//             │                                        │
//             │ owner dies / SIGSTOPs: renewals stop   │ next Acquire
//             v                                        v
//            lease expires (now - renewed > ttl)     token T+1
//             │     (or the file is damaged and
//             │      untouched for a ttl)
//             v
//            SEIZED by sibling: owner=O', token T+1 (takeover)
//
// Fencing contract: the token is monotonically increasing per campaign
// (every acquisition — fresh, re-claim after release, or seizure —
// writes a token above both the lease's and the caller's token floor,
// the highest token the campaign's journal and checkpoint names carry,
// so a deleted or damaged lease file never rewinds the epoch).
// Checkpoint publishes and journal records carry the owner's token; a
// zombie worker resumed after takeover (SIGSTOP → lease expired →
// seized → SIGCONT) fails Validate/Renew with kFailedPrecondition and
// must stop writing — and even its in-flight writes cannot clobber the
// new owner, because checkpoints are token-suffixed
// (`<id>.t<token>.ckpt`) and journal replay drops stale-token records
// (orch/journal.h).
//
// Durability and atomicity: lease files are published with the
// util/fsio tmp-fsync-rename discipline, and every read-modify-write
// transition holds an exclusive flock(2) on a sidecar `<id>.lock`, so
// two siblings racing to seize an expired lease cannot both win the
// same token. flock is held only for the transition (crash inside it
// auto-releases); ownership across time is the lease file itself.
// flock scopes the guarantee to workers sharing one kernel — the
// single-machine multi-process fleet this targets; multi-machine
// fleets over NFS would need an O_EXCL-based lock instead.
#ifndef POISONREC_ORCH_LEASE_H_
#define POISONREC_ORCH_LEASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/status.h"

namespace poisonrec::orch {

/// Parsed contents of one lease file.
struct LeaseInfo {
  std::string campaign_id;
  /// Owner worker id; empty once released.
  std::string owner;
  /// Pid of the owning process (diagnostics; the owner id embeds it).
  std::uint64_t pid = 0;
  /// Fencing token: strictly increases with every acquisition.
  std::uint64_t token = 0;
  /// Wall-clock seconds (unix epoch) of the last heartbeat renewal.
  double renewed_unix = 0.0;
  double ttl_seconds = 0.0;
};

/// Returns a process-unique worker id: `w<pid>-<boot nonce>`. The nonce
/// makes ids unique across pid reuse (reboots, pid wraparound).
std::string DefaultWorkerId();

/// `<checkpoint_dir>/leases`: the one lease directory of a fleet state
/// dir, shared by every worker, `fleet --status` and `fsck`.
std::string LeaseDir(const std::string& checkpoint_dir);

class LeaseManager {
 public:
  /// `dir` holds the lease + lock files (created by Init). `owner_id`
  /// identifies this worker in lease files and journal records.
  LeaseManager(std::string dir, std::string owner_id, double ttl_seconds);

  /// Creates the lease directory. Call before Acquire.
  Status Init();

  /// Claims the campaign when Seizable says so. A new epoch's token
  /// exceeds both the lease's token and `token_floor` (the highest token
  /// in the campaign's journal and `<id>.t<N>.ckpt` names), so a missing
  /// or damaged lease never reissues a used token. Re-acquiring our own
  /// lease keeps its token unless the floor has passed it. kUnavailable
  /// while a live sibling holds it.
  StatusOr<LeaseInfo> Acquire(const std::string& campaign_id,
                              std::uint64_t token_floor = 0);

  /// Heartbeat: refreshes renewed_unix. kFailedPrecondition when the
  /// lease no longer carries (owner, token) — we have been fenced out.
  Status Renew(const std::string& campaign_id, std::uint64_t token);

  /// Read-only fencing check: OK iff the lease file still names us with
  /// `token`. Called before every checkpoint publish / journal commit.
  Status Validate(const std::string& campaign_id, std::uint64_t token) const;

  /// Gives the lease up (owner cleared, token kept so the next acquire
  /// increments it). kFailedPrecondition when already fenced out.
  Status Release(const std::string& campaign_id, std::uint64_t token);

  /// Parses a lease file. kNotFound when it does not exist, kDataLoss
  /// when unparseable or its line checksum fails (a torn rename or bit
  /// rot, or a foreign file at the path).
  StatusOr<LeaseInfo> Read(const std::string& campaign_id) const;

  /// True when an Acquire by this manager would succeed without waiting:
  /// the lease is missing, released, already ours, or its heartbeat has
  /// expired — or it is damaged and its file has not been rewritten for
  /// a TTL (a live owner rewrites it every ttl/3, so nobody is behind
  /// it). A cheap read-only probe (no flock) for scheduler polling;
  /// Acquire makes the same decision under the flock.
  bool Seizable(const std::string& campaign_id) const;

  /// Campaign ids with a `<id>.lease` file in the lease directory,
  /// sorted (a missing directory lists none). Read-only.
  std::vector<std::string> List() const;

  std::string LeasePath(const std::string& campaign_id) const;
  const std::string& owner_id() const { return owner_id_; }
  double ttl_seconds() const { return ttl_seconds_; }

  /// Test seam: replaces the wall clock (seconds since epoch) so lease
  /// expiry can be driven without real sleeps.
  void SetClockForTest(std::function<double()> now) {
    now_ = std::move(now);
  }

 private:
  double Now() const;
  std::string LockPath(const std::string& campaign_id) const;
  /// The one seizability rule, given what Read returned: OK when this
  /// worker may claim the lease now, kUnavailable while someone may
  /// still be behind it, other errors for I/O.
  Status ClaimVerdict(const std::string& campaign_id,
                      const StatusOr<LeaseInfo>& current) const;
  Status WriteLease(const LeaseInfo& info) const;

  std::string dir_;
  std::string owner_id_;
  double ttl_seconds_;
  std::function<double()> now_;
};

}  // namespace poisonrec::orch

#endif  // POISONREC_ORCH_LEASE_H_
