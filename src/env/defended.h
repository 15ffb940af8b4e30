// Adaptive-defender simulation: a stateful decorator modeling a
// recommender platform that runs the defense ensemble (src/defense) *in
// production* and permanently bans the accounts it flags.
//
// The paper names detection-aware poisoning as its open future-work
// direction; this is the environment side of that setting. Unlike
// FaultyEnvironment's shadow bans — per-query, identity-less, forgotten
// as soon as the query returns — a DefendedEnvironment remembers every
// click each attacker account ever landed, periodically audits all users
// with a configurable defense::Detector, and *permanently* bans the most
// suspicious fake accounts: their accumulated history is expunged from
// the audit log and every future submission from them is filtered out of
// the poison log before retraining. See docs/robustness.md ("Adaptive
// defender").
//
// Stacking: the decorators compose as
//   DefendedEnvironment  (stateful: history, audits, permanent bans)
//     -> FaultyEnvironment  (stateless per query: transient faults)
//       -> AttackEnvironment (the clean black box)
// by constructing the defended layer with an inner FaultyEnvironment.
// Ban-filtered trajectories are forwarded to the inner layer, which may
// further drop clicks or shadow-ban, so one query can fail transiently
// (retriable) while the permanent ban state stays consistent: history is
// recorded once per query id, on the first successful attempt.
//
// Determinism: all ban decisions are pure functions of (profile.seed,
// sweep query id) *given the accumulated history*, and history accrues in
// query-id order when queries arrive in query-id order. The PPO driver
// serializes reward queries whenever a DefendedEnvironment is attached,
// so two runs with the same seed produce bit-identical ban sequences —
// including across a crash + LoadCheckpoint resume (SerializeState /
// RestoreState round-trip the full defender state).
#ifndef POISONREC_ENV_DEFENDED_H_
#define POISONREC_ENV_DEFENDED_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "defense/detector.h"
#include "env/environment.h"
#include "util/status.h"

namespace poisonrec::env {

/// How aggressively the simulated platform hunts fake accounts.
struct DefenseProfile {
  /// Queries between detection sweeps. A sweep fires on the first query
  /// whose id reaches the next multiple of this interval and audits all
  /// history accumulated before it.
  std::size_t detection_interval = 64;
  /// Accounts banned per sweep (the top-suspicion candidates). 0 turns
  /// the defender into a pure observer (sweeps run, nobody is banned).
  std::size_t bans_per_sweep = 2;
  /// Only accounts scoring strictly above this suspicion are ban
  /// candidates (the detector's scores are scale-dependent; the default
  /// accepts anything positive).
  double suspicion_threshold = 0.0;
  /// Per-candidate probability that the ops team actually executes the
  /// ban (models an imperfect defender; drawn deterministically from
  /// (seed, sweep query id, account)).
  double ban_probability = 1.0;
  std::uint64_t seed = 4321;
};

/// The range rule of DefenseProfile: detection_interval >= 1 and
/// ban_probability in [0, 1]. kInvalidArgument names the field.
Status ValidateDefenseProfile(const DefenseProfile& profile);

/// One permanent ban, reported in the order it was executed.
struct BanEvent {
  /// Query id of the sweep boundary that triggered the ban.
  std::uint64_t query_id = 0;
  /// Which attacker account (environment attacker index) was banned.
  std::size_t attacker_index = 0;
  /// The platform user id of that account.
  data::UserId user_id = 0;
  /// The detector score that condemned it.
  double suspicion = 0.0;
};

/// Counters of the defender's activity (copyable snapshot).
struct DefenseStats {
  std::uint64_t queries = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t bans = 0;
  /// Submissions from already-banned accounts, silently filtered.
  std::uint64_t filtered_trajectories = 0;
  /// Clicks recorded into the persistent attacker history.
  std::uint64_t recorded_clicks = 0;
};

/// The defended recommender platform. Thread-safe, but bit-identical
/// reproduction additionally requires queries to arrive in query-id
/// order (see the file comment); concurrent callers serialize on an
/// internal mutex either way because the defender state is shared.
class DefendedEnvironment : public RewardSource {
 public:
  /// Defends `inner`: ban-filtered trajectories are forwarded to it (a
  /// FaultyEnvironment's transient faults and shadow bans then apply on
  /// top). `inner` must outlive this decorator.
  DefendedEnvironment(const RewardSource* inner,
                      std::unique_ptr<defense::Detector> detector,
                      const DefenseProfile& profile);

  const AttackEnvironment& base() const override { return inner_->base(); }

  /// One query against the defended system: runs any due detection
  /// sweeps, filters banned accounts' trajectories, forwards the rest to
  /// the inner layer, and (on success) records the delivered submissions
  /// into the persistent attacker history. Returns the inner layer's
  /// reward or transient error; a ban never fails the query — banned
  /// submissions just stop landing.
  StatusOr<double> TryEvaluate(const std::vector<Trajectory>& trajectories,
                               std::uint64_t query_id,
                               std::uint32_t attempt = 0) const override;

  /// All banned accounts, ascending.
  std::vector<std::size_t> BannedAccounts() const;
  /// Every ban in execution order.
  std::vector<BanEvent> ban_events() const;

  DefenseStats stats() const;

  /// Full defender state (history, bans, sweep cursor) as a binary blob
  /// for crash-safe checkpoints. Restoring it reproduces the exact ban
  /// sequence of an uninterrupted run.
  std::string SerializeState() const;
  /// Restores a SerializeState blob. The decorator must wrap an
  /// environment with the same number of attacker accounts. A truncated
  /// blob, or one whose counts exceed its bytes, is kIoError and leaves
  /// this object unchanged.
  Status RestoreState(std::string_view blob);

 private:
  /// Runs every sweep due at or before `query_id` (caller holds mu_).
  void RunDueSweeps(std::uint64_t query_id) const;
  /// One detection sweep at boundary `sweep_query` (caller holds mu_).
  void Sweep(std::uint64_t sweep_query) const;

  const RewardSource* inner_;
  std::unique_ptr<defense::Detector> detector_;
  DefenseProfile profile_;

  // Defender state: TryEvaluate is const, so it is mutable, under mu_.
  mutable std::mutex mu_;
  /// Accumulated clicks per attacker account, in landing order.
  mutable std::vector<std::vector<data::ItemId>> history_;
  mutable std::vector<char> banned_;
  mutable std::vector<BanEvent> events_;
  /// Query ids whose submission already landed (dedupes retry attempts).
  mutable std::set<std::uint64_t> recorded_queries_;
  /// Next sweep boundary (a query with id >= this triggers the sweep).
  mutable std::uint64_t next_sweep_ = 0;
  mutable DefenseStats stats_;
};

}  // namespace poisonrec::env

#endif  // POISONREC_ENV_DEFENDED_H_
