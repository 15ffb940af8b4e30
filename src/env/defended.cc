#include "env/defended.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/random.h"

namespace poisonrec::env {

namespace {

/// Process-global mirrors of the defender activity counters (the
/// attacker-facing view lives in DefenseStats; these feed the campaign
/// metrics snapshot without plumbing the instance around).
struct DefenseCounters {
  obs::Counter* queries;
  obs::Counter* sweeps;
  obs::Counter* bans;
  obs::Counter* filtered_trajectories;
  obs::Counter* recorded_clicks;
};

const DefenseCounters& Counters() {
  static const DefenseCounters counters = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    DefenseCounters c;
    c.queries = reg.GetCounter("poisonrec_defense_queries_total");
    c.sweeps = reg.GetCounter("poisonrec_defense_sweeps_total");
    c.bans = reg.GetCounter("poisonrec_defense_bans_total");
    c.filtered_trajectories =
        reg.GetCounter("poisonrec_defense_filtered_trajectories_total");
    c.recorded_clicks =
        reg.GetCounter("poisonrec_defense_recorded_clicks_total");
    return c;
  }();
  return counters;
}

// Defender-state framing ("PRDF", version 1) inside the blob returned by
// SerializeState; embedded whole into attacker checkpoints. Layout, in
// util/bytes.h fields: u32 magic, u32 version, u64 accounts, per account
// u64 history length + u64 items, one u8 ban flag per account, u64 event
// count + (u64 query, u64 account, u64 user, f64 suspicion) per event,
// u64 recorded-query count + u64 ids, then u64 next sweep and the five
// u64 DefenseStats counters.
constexpr std::uint32_t kStateMagic = 0x50524446u;  // "PRDF"
constexpr std::uint32_t kStateVersion = 1;
constexpr std::size_t kBanEventBytes = 32;

}  // namespace

Status ValidateDefenseProfile(const DefenseProfile& profile) {
  if (profile.detection_interval == 0) {
    return Status::InvalidArgument("detection_interval must be >= 1, got 0");
  }
  if (!(profile.ban_probability >= 0.0 && profile.ban_probability <= 1.0)) {
    return Status::InvalidArgument(
        "ban_probability must be a probability in [0, 1], got " +
        std::to_string(profile.ban_probability));
  }
  return Status::OK();
}

DefendedEnvironment::DefendedEnvironment(
    const RewardSource* inner, std::unique_ptr<defense::Detector> detector,
    const DefenseProfile& profile)
    : inner_(inner), detector_(std::move(detector)), profile_(profile) {
  POISONREC_CHECK(inner_ != nullptr);
  POISONREC_CHECK(detector_ != nullptr);
  POISONREC_CHECK_OK(ValidateDefenseProfile(profile_));
  history_.resize(base().num_attackers());
  banned_.assign(base().num_attackers(), 0);
  next_sweep_ = profile_.detection_interval;
}

void DefendedEnvironment::RunDueSweeps(std::uint64_t query_id) const {
  while (query_id >= next_sweep_) {
    Sweep(next_sweep_);
    next_sweep_ += profile_.detection_interval;
  }
}

void DefendedEnvironment::Sweep(std::uint64_t sweep_query) const {
  ++stats_.sweeps;
  Counters().sweeps->Increment();
  if (profile_.bans_per_sweep == 0) return;

  // Audit log: the expanded clean log plus every *live* account's
  // accumulated submissions. Banned accounts' past clicks are already
  // expunged — exactly the "past and future clicks filtered" semantics.
  const AttackEnvironment& base = this->base();
  data::Dataset audit = base.dataset().Clone();
  bool any_history = false;
  for (std::size_t a = 0; a < history_.size(); ++a) {
    if (banned_[a] || history_[a].empty()) continue;
    audit.AddSequence(base.AttackerUserId(a), history_[a]);
    any_history = true;
  }
  if (!any_history) return;

  const std::vector<double> scores = detector_->Score(audit);

  // Candidates: live attacker accounts with history, above the threshold.
  // (The platform audits *new* accounts — every attacker slot is one —
  // so organic users are never ban candidates; see docs/robustness.md.)
  std::vector<std::size_t> candidates;
  for (std::size_t a = 0; a < history_.size(); ++a) {
    if (banned_[a] || history_[a].empty()) continue;
    if (scores[base.AttackerUserId(a)] > profile_.suspicion_threshold) {
      candidates.push_back(a);
    }
  }
  // Only the bans_per_sweep most suspicious candidates matter; the
  // comparator is a total order (ties by slot index), so partial_sort
  // selects and orders exactly what the old full sort did — the ban
  // sequence is unchanged.
  const auto most_suspicious = [&base, &scores](std::size_t a,
                                                std::size_t b) {
    const double sa = scores[base.AttackerUserId(a)];
    const double sb = scores[base.AttackerUserId(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  };
  if (candidates.size() > profile_.bans_per_sweep) {
    const auto mid = candidates.begin() +
                     static_cast<std::ptrdiff_t>(profile_.bans_per_sweep);
    std::partial_sort(candidates.begin(), mid, candidates.end(),
                      most_suspicious);
    candidates.resize(profile_.bans_per_sweep);
  } else {
    std::sort(candidates.begin(), candidates.end(), most_suspicious);
  }

  for (std::size_t a : candidates) {
    if (profile_.ban_probability < 1.0) {
      // Deterministic in (seed, sweep query id, account) — independent of
      // how many candidates preceded this one.
      Rng rng(SplitMix64(SplitMix64(profile_.seed ^ SplitMix64(sweep_query)) ^
                         SplitMix64(a + 1)));
      if (!rng.Bernoulli(profile_.ban_probability)) continue;
    }
    banned_[a] = 1;
    history_[a].clear();
    BanEvent event;
    event.query_id = sweep_query;
    event.attacker_index = a;
    event.user_id = base.AttackerUserId(a);
    event.suspicion = scores[event.user_id];
    events_.push_back(event);
    ++stats_.bans;
    Counters().bans->Increment();
    POISONREC_LOG(Info) << "defender banned account " << a << " (user "
                        << event.user_id << ", suspicion " << event.suspicion
                        << ") at query " << sweep_query;
  }
}

StatusOr<double> DefendedEnvironment::TryEvaluate(
    const std::vector<Trajectory>& trajectories, std::uint64_t query_id,
    std::uint32_t attempt) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.queries;
  Counters().queries->Increment();
  RunDueSweeps(query_id);

  // The platform silently drops submissions from banned accounts: their
  // clicks never reach the poison log, so retraining never sees them.
  std::vector<Trajectory> delivered;
  delivered.reserve(trajectories.size());
  for (const Trajectory& traj : trajectories) {
    POISONREC_CHECK_LT(traj.attacker_index, banned_.size())
        << "trajectory for unknown account";
    if (banned_[traj.attacker_index]) {
      ++stats_.filtered_trajectories;
      Counters().filtered_trajectories->Increment();
      continue;
    }
    delivered.push_back(traj);
  }

  StatusOr<double> result = inner_->TryEvaluate(delivered, query_id, attempt);
  if (!result.ok()) return result;

  // Record what landed, once per query id (retry attempts of the same
  // query must not double-count the submission).
  if (recorded_queries_.insert(query_id).second) {
    for (const Trajectory& traj : delivered) {
      std::vector<data::ItemId>& h = history_[traj.attacker_index];
      h.insert(h.end(), traj.items.begin(), traj.items.end());
      stats_.recorded_clicks += traj.items.size();
      Counters().recorded_clicks->Increment(traj.items.size());
    }
  }
  return result;
}

std::vector<std::size_t> DefendedEnvironment::BannedAccounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> out;
  for (std::size_t a = 0; a < banned_.size(); ++a) {
    if (banned_[a]) out.push_back(a);
  }
  return out;
}

std::vector<BanEvent> DefendedEnvironment::ban_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

DefenseStats DefendedEnvironment::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::string DefendedEnvironment::SerializeState() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string bytes;
  ByteWriter out(&bytes);
  out.U32(kStateMagic);
  out.U32(kStateVersion);
  out.U64(history_.size());
  for (const std::vector<data::ItemId>& h : history_) {
    out.U64(h.size());
    for (data::ItemId item : h) out.U64(item);
  }
  for (char b : banned_) out.U8(static_cast<std::uint8_t>(b));
  out.U64(events_.size());
  for (const BanEvent& e : events_) {
    out.U64(e.query_id);
    out.U64(e.attacker_index);
    out.U64(e.user_id);
    out.F64(e.suspicion);
  }
  out.U64(recorded_queries_.size());
  for (std::uint64_t q : recorded_queries_) out.U64(q);
  out.U64(next_sweep_);
  out.U64(stats_.queries);
  out.U64(stats_.sweeps);
  out.U64(stats_.bans);
  out.U64(stats_.filtered_trajectories);
  out.U64(stats_.recorded_clicks);
  return bytes;
}

Status DefendedEnvironment::RestoreState(std::string_view blob) {
  ByteReader in(blob);
  const std::uint32_t magic = in.U32();
  const std::uint32_t version = in.U32();
  if (!in.ok() || magic != kStateMagic) {
    return Status::InvalidArgument("not a defender state blob");
  }
  if (version != kStateVersion) {
    return Status::InvalidArgument("unsupported defender state version " +
                                   std::to_string(version));
  }
  const std::uint64_t accounts = in.U64();
  if (!in.ok()) return Status::IoError("truncated defender state");
  if (accounts != history_.size()) {
    return Status::InvalidArgument(
        "defender state has " + std::to_string(accounts) +
        " accounts, environment has " + std::to_string(history_.size()));
  }

  // Stage, then commit: a truncated blob must leave this object
  // unchanged. Every count is bounded by the bytes left, so a damaged
  // one reads as truncation.
  std::vector<std::vector<data::ItemId>> history(accounts);
  for (std::vector<data::ItemId>& h : history) {
    h.resize(in.Count(sizeof(std::uint64_t)));
    for (data::ItemId& item : h) item = static_cast<data::ItemId>(in.U64());
  }
  std::vector<char> banned(accounts);
  for (char& b : banned) b = static_cast<char>(in.U8());
  std::vector<BanEvent> events(in.Count(kBanEventBytes));
  for (BanEvent& e : events) {
    e.query_id = in.U64();
    e.attacker_index = in.U64();
    e.user_id = in.U64();
    e.suspicion = in.F64();
  }
  std::set<std::uint64_t> recorded;
  const std::uint64_t n_recorded = in.Count(sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < n_recorded; ++i) recorded.insert(in.U64());
  const std::uint64_t next_sweep = in.U64();
  DefenseStats stats;
  stats.queries = in.U64();
  stats.sweeps = in.U64();
  stats.bans = in.U64();
  stats.filtered_trajectories = in.U64();
  stats.recorded_clicks = in.U64();
  if (!in.ok()) return Status::IoError("truncated defender state");

  std::lock_guard<std::mutex> lock(mu_);
  history_ = std::move(history);
  banned_ = std::move(banned);
  events_ = std::move(events);
  recorded_queries_ = std::move(recorded);
  next_sweep_ = next_sweep;
  stats_ = stats;
  return Status::OK();
}

}  // namespace poisonrec::env
