// Attacker account-pool management: the resource model that lets a
// PoisonRec campaign survive an adaptive defender (env::DefendedEnvironment)
// that permanently bans accounts mid-campaign.
//
// The policy controls a fixed number of trajectory *slots* (the paper's
// N concurrent fake users). Each slot is mapped to a live platform
// *account* drawn from a finite reserve: when the defender bans an
// account, the pool retires it and remaps the slot onto the next fresh
// reserve account; when the reserve drains, the slot dies and the
// effective fleet shrinks (graceful degradation — the driver stops
// injecting and stops training on dead slots). The environment's
// attacker id space must cover every account the pool can ever hand out
// (slots + reserve).
#ifndef POISONREC_CORE_ACCOUNT_POOL_H_
#define POISONREC_CORE_ACCOUNT_POOL_H_

#include <cstddef>
#include <vector>

namespace poisonrec::core {

struct AccountPoolConfig {
  /// Replacement accounts beyond the initial fleet; 0 = no pool (a
  /// banned slot dies for good). The environment must be built with
  /// num_attackers = policy slots + reserve_accounts.
  std::size_t reserve_accounts = 0;
  /// The campaign aborts (kResourceExhausted) when fewer than this many
  /// slots are still mapped to live accounts. 0 = never abort.
  std::size_t min_live_attackers = 2;
};

/// Slot -> account mapping with a finite replacement reserve.
/// Deterministic: replacement always hands out the lowest unused account
/// id, so two runs that ban the same accounts remap identically.
class AccountPool {
 public:
  /// Accounts [0, num_slots) seed the initial fleet; accounts
  /// [num_slots, total_accounts) form the reserve.
  AccountPool(std::size_t num_slots, std::size_t total_accounts);

  std::size_t num_slots() const { return slot_account_.size(); }
  std::size_t total_accounts() const { return total_accounts_; }

  /// Account currently behind `slot`, or kDeadSlot when the slot died.
  static constexpr std::size_t kDeadSlot = static_cast<std::size_t>(-1);
  std::size_t account(std::size_t slot) const;
  bool IsLive(std::size_t slot) const {
    return account(slot) != kDeadSlot;
  }

  /// Retires `account` wherever it is mapped and remaps its slot onto the
  /// next fresh reserve account (or kills the slot when the reserve is
  /// dry). Idempotent: banning an account the pool no longer uses is a
  /// no-op. Returns true if a slot was affected.
  bool OnBanned(std::size_t account);

  /// Slots still mapped to a live account.
  std::size_t live_slots() const;
  /// Fresh accounts still available in the reserve.
  std::size_t reserve_remaining() const {
    return total_accounts_ - next_account_;
  }
  /// Accounts retired (banned) so far.
  std::size_t retired_accounts() const { return retired_; }

  // -- Checkpoint plumbing (core/ppo.cc round-trips this bit-identically).
  const std::vector<std::size_t>& slot_accounts() const {
    return slot_account_;
  }
  std::size_t next_account() const { return next_account_; }
  /// Restores a snapshot; shapes must match the constructed pool.
  void Restore(std::vector<std::size_t> slot_accounts,
               std::size_t next_account, std::size_t retired);

 private:
  std::size_t total_accounts_;
  /// Next never-used account id (everything below is spent).
  std::size_t next_account_;
  std::size_t retired_ = 0;
  std::vector<std::size_t> slot_account_;
};

}  // namespace poisonrec::core

#endif  // POISONREC_CORE_ACCOUNT_POOL_H_
