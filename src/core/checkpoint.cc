// The attacker checkpoint codec ("PRCK"), declared in core/ppo.h.
#include "core/ppo.h"

#include "env/defended.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "util/bytes.h"
#include "util/fsio.h"

namespace poisonrec::core {

namespace {

// Attacker checkpoint framing ("PRCK"; versions below). Payload layout,
// in util/bytes.h fields:
//   u64 steps_taken
//   policy parameters: u64 count, then per tensor u64 rows, u64 cols,
//     float32 payload
//   Adam: u64 step_count, then per parameter m[] and v[] float32 payloads
//   RNG engine state: u64 length + text blob
//   best episode: f64 reward, u8 observed, u64 n_trajectories, then per
//     trajectory u64 attacker_index, u64 n_steps, per step u64 item,
//     u64 path_len + i32s, u64 logprob_len + f64s
//   v2 appends the adaptive-defender campaign state:
//   account pool: u8 present; when present u64 num_slots, u64
//     total_accounts, u64 next_account, u64 retired, then per slot a u64
//     account id (dead slots as u64 max)
//   defender: u8 attached; when attached u64 blob length + the
//     DefendedEnvironment::SerializeState payload (history, bans, sweep
//     cursor)
//   v3 inserts the episode-sampling stream state right after
//   steps_taken:
//   u64 sampling stream root seed (== config.seed; episode m of step s
//     draws from Rng(DeriveStreamSeed(root, s, m)))
//   v4 keeps the v3 payload bit-identical but wraps the whole file in
//   the util/fsio integrity footer ("PRIF": magic, version, payload
//   length, CRC32C), so load verifies the checkpoint byte-for-byte and
//   classifies damage as torn (interrupted publish) vs corrupt (bit
//   rot) instead of trusting whatever parses.
// Version history: v1 predates the account pool / defended environment
// (PR 1-2); v2 predates per-episode sampling streams — under v2
// sampling advanced the shared RNG, so a v2 engine blob encodes a draw
// order that no longer exists and resuming from it would not reproduce
// an uninterrupted run; v3 predates the whole-file checksum, so its
// bytes cannot be verified against rot. Old versions are rejected with
// kInvalidArgument rather than being misparsed.
constexpr std::uint32_t kCheckpointMagic = 0x5052434bu;  // "PRCK"
constexpr std::uint32_t kCheckpointVersion = 4;
constexpr std::size_t kCheckpointHeaderBytes = 8;  // magic, version
constexpr std::uint64_t kDeadSlotTag = ~0ull;

}  // namespace

void PoisonRecAttacker::EmitCheckpointEvent(const char* op,
                                            const std::string& path,
                                            bool ok) const {
  if (event_log_ == nullptr) return;
  obs::JsonObjectBuilder b;
  b.Str("type", "checkpoint")
      .Str("op", op)
      .Str("path", path)
      .Bool("ok", ok)
      .Int("steps_taken", steps_taken_);
  event_log_->Append(std::move(b).Finish());
}

StatusOr<std::string_view> CheckpointPayload(std::string_view file,
                                             const std::string& path,
                                             FileIntegrity* integrity) {
  const auto fail = [&](FileIntegrity result, Status status) {
    if (integrity != nullptr) *integrity = result;
    return status;
  };
  ByteReader header(file);
  const std::uint32_t magic = header.U32();
  const std::uint32_t version = header.U32();
  if (!header.ok()) {
    // Zero-length or short file: the writer (or the filesystem, after a
    // crash without the fsync path) lost the payload.
    return fail(FileIntegrity::kTorn,
                Status::DataLoss(path + ": shorter than the checkpoint "
                                 "header (torn publish)"));
  }
  if (magic != kCheckpointMagic) {
    return fail(FileIntegrity::kCorrupt,
                Status::InvalidArgument(
                    path + ": not a PoisonRec attacker checkpoint"));
  }
  if (version != kCheckpointVersion) {
    std::string hint;
    if (version < kCheckpointVersion) {
      hint = " (version " + std::to_string(version) + " predates the v" +
             std::to_string(kCheckpointVersion) +
             " format's per-episode sampling streams and whole-file "
             "checksum; re-run the campaign to produce a current "
             "checkpoint)";
    }
    return fail(FileIntegrity::kCorrupt,
                Status::InvalidArgument(
                    path + ": unsupported attacker checkpoint version " +
                    std::to_string(version) + hint));
  }
  // The header names a current checkpoint — now the integrity footer
  // decides whether the rest of the bytes can be trusted: a length
  // mismatch or missing footer is a torn publish, a CRC mismatch is
  // bit rot. Both are kDataLoss (lost state), never misparsed.
  std::size_t framed_size = 0;
  POISONREC_RETURN_NOT_OK(
      VerifyIntegrityFooter(file, path, &framed_size, integrity));
  return file.substr(kCheckpointHeaderBytes,
                     framed_size - kCheckpointHeaderBytes);
}

Status PoisonRecAttacker::SaveCheckpoint(const std::string& path) const {
  POISONREC_TRACE_SPAN("ppo/checkpoint_save");
  // Serialize into memory first: the payload needs a whole-file CRC
  // before any byte touches disk, and the in-memory size is trivial
  // next to the fsyncs the durable publish costs anyway.
  std::string bytes;
  ByteWriter out(&bytes);
  out.U32(kCheckpointMagic);
  out.U32(kCheckpointVersion);
  out.U64(steps_taken_);
  // v3: the sampling stream-derivation state. Together with steps_taken
  // this pins every future episode's Rng stream, so a resumed campaign
  // samples exactly what the uninterrupted one would.
  out.U64(config_.seed);

  const std::vector<nn::Tensor> params = policy_->Parameters();
  out.U64(params.size());
  for (const nn::Tensor& p : params) {
    out.U64(p.rows());
    out.U64(p.cols());
    out.Floats(p.data());
  }

  out.U64(optimizer_->step_count());
  for (const std::vector<float>& m : optimizer_->first_moments()) {
    out.Floats(m);
  }
  for (const std::vector<float>& v : optimizer_->second_moments()) {
    out.Floats(v);
  }

  out.Blob(rng_.SerializeState());

  out.F64(best_episode_.reward);
  out.U8(best_episode_.reward_observed ? 1 : 0);
  out.U64(best_episode_.trajectories.size());
  for (const SampledTrajectory& traj : best_episode_.trajectories) {
    out.U64(traj.attacker_index);
    out.U64(traj.steps.size());
    for (const SampledStep& step : traj.steps) {
      out.U64(step.item);
      out.U64(step.path.size());
      for (int node : step.path) out.I32(node);
      out.U64(step.old_log_probs.size());
      for (double lp : step.old_log_probs) out.F64(lp);
    }
  }

  // v2: adaptive-defender campaign state (pool + platform ban state).
  out.U8(pool_ != nullptr ? 1 : 0);
  if (pool_ != nullptr) {
    out.U64(pool_->num_slots());
    out.U64(pool_->total_accounts());
    out.U64(pool_->next_account());
    out.U64(pool_->retired_accounts());
    for (std::size_t a : pool_->slot_accounts()) {
      out.U64(a == AccountPool::kDeadSlot ? kDeadSlotTag
                                          : static_cast<std::uint64_t>(a));
    }
  }
  out.U8(defended_ != nullptr ? 1 : 0);
  if (defended_ != nullptr) out.Blob(defended_->SerializeState());

  // Durable atomic publish with the integrity footer appended: write
  // tmp, fsync, rename, fsync the parent directory — so the published
  // name can never refer to unwritten data after a power loss, and a
  // crash before the rename leaves any previous checkpoint at `path`
  // untouched. The footer's CRC lets load verify every byte.
  const Status status = WriteFileDurableChecksummed(path, bytes);
  EmitCheckpointEvent("save", path, status.ok());
  return status;
}

StatusOr<std::uint64_t> CheckpointSteps(const std::string& path) {
  StatusOr<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return Status::IoError("cannot open " + path);
  POISONREC_ASSIGN_OR_RETURN(const std::string_view payload,
                             CheckpointPayload(*bytes, path));
  ByteReader in(payload);
  const std::uint64_t steps = in.U64();  // the payload's first field
  if (!in.ok()) return Status::DataLoss("truncated checkpoint");
  return steps;
}

Status PoisonRecAttacker::LoadCheckpoint(const std::string& path) {
  POISONREC_TRACE_SPAN("ppo/checkpoint_load");
  const Status status = [&]() -> Status {
  const Status truncated = Status::DataLoss("truncated checkpoint");
  StatusOr<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return Status::IoError("cannot open " + path);
  POISONREC_ASSIGN_OR_RETURN(const std::string_view payload,
                             CheckpointPayload(*bytes, path));
  ByteReader in(payload);
  const std::uint64_t steps = in.U64();
  const std::uint64_t stream_seed = in.U64();
  if (!in.ok()) return truncated;
  if (stream_seed != config_.seed) {
    return Status::InvalidArgument(
        "checkpoint sampling stream seed " + std::to_string(stream_seed) +
        " does not match configured seed " + std::to_string(config_.seed) +
        "; resuming would change every future episode's RNG stream");
  }

  // Stage everything before touching live state: a truncated or
  // mismatched file must leave the attacker unchanged.
  std::vector<nn::Tensor> params = policy_->Parameters();
  const std::uint64_t count = in.U64();
  if (!in.ok()) return truncated;
  if (count != params.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) + " tensors, policy has " +
        std::to_string(params.size()));
  }
  std::vector<std::vector<float>> staged_params(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::uint64_t rows = in.U64();
    const std::uint64_t cols = in.U64();
    if (!in.ok()) return truncated;
    if (rows != params[i].rows() || cols != params[i].cols()) {
      return Status::InvalidArgument(
          "parameter " + std::to_string(i) + " shape mismatch: checkpoint " +
          std::to_string(rows) + "x" + std::to_string(cols) + " vs policy " +
          params[i].ShapeString());
    }
    staged_params[i].resize(params[i].size());
    in.Floats(&staged_params[i]);
    if (!in.ok()) return Status::DataLoss("truncated checkpoint payload");
  }

  const std::uint64_t adam_steps = in.U64();
  std::vector<std::vector<float>> m(params.size());
  std::vector<std::vector<float>> v(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    m[i].resize(params[i].size());
    in.Floats(&m[i]);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    v[i].resize(params[i].size());
    in.Floats(&v[i]);
  }

  const std::string_view rng_state = in.Blob();

  // Every count is bounded by the bytes left (a trajectory takes at
  // least 16, a step 24), so a damaged one reads as truncation.
  Episode best;
  best.reward = in.F64();
  best.reward_observed = in.U8() != 0;
  best.trajectories.resize(in.Count(16));
  for (SampledTrajectory& traj : best.trajectories) {
    traj.attacker_index = in.U64();
    traj.steps.resize(in.Count(24));
    for (SampledStep& step : traj.steps) {
      step.item = in.U64();
      step.path.resize(in.Count(sizeof(std::int32_t)));
      for (int& node : step.path) node = in.I32();
      step.old_log_probs.resize(in.Count(sizeof(double)));
      for (double& lp : step.old_log_probs) lp = in.F64();
    }
  }

  // v2 sections: account pool and defender state. Presence must match
  // this attacker's configuration — a pooled checkpoint cannot restore
  // into a pool-less attacker (or vice versa) without silently changing
  // campaign semantics.
  const bool pool_flag = in.U8() != 0;
  if (!in.ok()) return truncated;
  if (pool_flag != (pool_ != nullptr)) {
    return Status::InvalidArgument(
        pool_flag
            ? "checkpoint carries account-pool state but this attacker has "
              "no pool configured"
            : "this attacker has an account pool but the checkpoint has no "
              "pool state");
  }
  std::vector<std::size_t> staged_slots;
  std::uint64_t pool_next = 0;
  std::uint64_t pool_retired = 0;
  if (pool_flag) {
    const std::uint64_t slots = in.U64();
    const std::uint64_t total = in.U64();
    pool_next = in.U64();
    pool_retired = in.U64();
    if (!in.ok()) return truncated;
    if (slots != pool_->num_slots() || total != pool_->total_accounts()) {
      return Status::InvalidArgument(
          "checkpoint pool shape " + std::to_string(slots) + "/" +
          std::to_string(total) + " does not match configured pool " +
          std::to_string(pool_->num_slots()) + "/" +
          std::to_string(pool_->total_accounts()));
    }
    if (pool_next > total) {
      return Status::InvalidArgument("corrupt pool state: next account " +
                                     std::to_string(pool_next) + " > " +
                                     std::to_string(total));
    }
    staged_slots.resize(slots);
    for (std::size_t& a : staged_slots) {
      // A failed read yields account 0, always valid: truncation is
      // reported after the loop.
      const std::uint64_t id = in.U64();
      if (id != kDeadSlotTag && id >= total) {
        return Status::InvalidArgument("corrupt pool state: slot maps to "
                                       "account " + std::to_string(id));
      }
      a = id == kDeadSlotTag ? AccountPool::kDeadSlot
                             : static_cast<std::size_t>(id);
    }
  }
  const bool defender_flag = in.U8() != 0;
  if (!in.ok()) return truncated;
  if (defender_flag != (defended_ != nullptr)) {
    return Status::InvalidArgument(
        defender_flag
            ? "checkpoint carries defender state; attach the "
              "DefendedEnvironment before loading"
            : "a DefendedEnvironment is attached but the checkpoint has no "
              "defender state");
  }
  const std::string_view defender_blob =
      defender_flag ? in.Blob() : std::string_view();
  if (!in.ok()) return truncated;

  // Commit: everything parsed cleanly. Fallible commits run first (the
  // RNG deserialize stages into a local, the defender restore stages
  // internally), so a bad payload still leaves the attacker untouched.
  Rng restored_rng(0);
  POISONREC_RETURN_NOT_OK(restored_rng.DeserializeState(std::string(rng_state)));
  if (defended_ != nullptr) {
    POISONREC_RETURN_NOT_OK(defended_->RestoreState(defender_blob));
  }
  if (pool_ != nullptr) {
    pool_->Restore(std::move(staged_slots), pool_next, pool_retired);
  }
  POISONREC_RETURN_NOT_OK(
      optimizer_->RestoreState(adam_steps, std::move(m), std::move(v)));
  for (std::size_t i = 0; i < params.size(); ++i) {
    params[i].mutable_data() = std::move(staged_params[i]);
  }
  rng_ = restored_rng;
  steps_taken_ = steps;
  best_episode_ = std::move(best);
  return Status::OK();
  }();
  EmitCheckpointEvent("load", path, status.ok());
  return status;
}

}  // namespace poisonrec::core
