#include "orch/journal.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "obs/crc32c.h"
#include "obs/json.h"
#include "orch/json_reader.h"

namespace poisonrec::orch {

const char* CampaignStateName(CampaignState state) {
  switch (state) {
    case CampaignState::kPending: return "pending";
    case CampaignState::kRunning: return "running";
    case CampaignState::kCheckpointed: return "checkpointed";
    case CampaignState::kDone: return "done";
    case CampaignState::kQuarantined: return "quarantined";
    case CampaignState::kFailed: return "failed";
    case CampaignState::kPreempted: return "preempted";
  }
  return "unknown";
}

StatusOr<CampaignState> ParseCampaignState(const std::string& name) {
  for (const CampaignState state :
       {CampaignState::kPending, CampaignState::kRunning,
        CampaignState::kCheckpointed, CampaignState::kDone,
        CampaignState::kQuarantined, CampaignState::kFailed,
        CampaignState::kPreempted}) {
    if (name == CampaignStateName(state)) return state;
  }
  return Status::InvalidArgument("unknown campaign state \"" + name + "\"");
}

bool IsTerminal(CampaignState state) {
  return state == CampaignState::kDone ||
         state == CampaignState::kQuarantined ||
         state == CampaignState::kFailed;
}

Status FleetJournal::Open(const std::string& path) {
  // checksum=true: every journal line carries a CRC32C member so
  // replay can tell rotted records from torn ones (obs/crc32c.h).
  if (!log_.Open(path, /*truncate=*/false, /*checksum=*/true)) {
    return Status::IoError("cannot open fleet journal " + path);
  }
  return Status::OK();
}

bool FleetJournal::Record(const CampaignJournalRecord& record) {
  obs::JsonObjectBuilder b;
  b.Str("type", "campaign")
      .Str("id", record.campaign_id)
      .Str("state", CampaignStateName(record.state))
      .Int("step", record.step)
      .Num("reward", record.reward)
      .Num("best_reward", record.best_reward)
      .Int("restarts", record.restarts)
      .Int("token", record.token);
  if (!record.owner.empty()) b.Str("owner", record.owner);
  if (!record.detail.empty()) b.Str("detail", record.detail);
  return log_.Append(std::move(b).Finish());
}

std::string FleetJournal::WorkerJournalPath(const std::string& base_path,
                                            const std::string& worker_id) {
  const std::filesystem::path base(base_path);
  const std::string name =
      base.stem().string() + "." + worker_id + base.extension().string();
  return base.parent_path().empty() ? name
                                    : (base.parent_path() / name).string();
}

std::vector<std::string> FleetJournal::ListJournalFiles(
    const std::string& base_path) {
  const std::filesystem::path base(base_path);
  std::filesystem::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  const std::string stem = base.stem().string();
  const std::string ext = base.extension().string();
  std::vector<std::string> files;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    // The base file itself plus per-worker siblings `<stem>.<worker><ext>`
    // (e.g. fleet_journal.jsonl, fleet_journal.w812-3f.jsonl). A plain
    // prefix match would also swallow unrelated `<stem>_old<ext>` files.
    const bool matches =
        name == stem + ext ||
        (name.size() > stem.size() + ext.size() + 1 &&
         name.compare(0, stem.size() + 1, stem + ".") == 0 &&
         name.compare(name.size() - ext.size(), ext.size(), ext) == 0);
    if (matches) files.push_back((dir / name).string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

StatusOr<JournalReplayResult> FleetJournal::Replay(
    const std::vector<std::string>& paths) {
  JournalReplayResult result;
  // Per campaign and step, the token that currently owns the reward:
  // a higher-token record takes the step over, a lower one is stale.
  std::map<std::string, std::map<std::uint64_t, std::uint64_t>> step_tokens;

  for (const std::string& path : paths) {
    std::ifstream in(path);
    if (!in) return Status::IoError("cannot open fleet journal " + path);
    ++result.files_merged;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(std::move(line));
    }
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const bool is_tail = (i + 1 == lines.size());
      // A torn trailing line (kill mid-append) is the expected crash
      // frontier; anything malformed BEFORE it is real corruption and
      // is counted so the report can surface it.
      const auto reject = [&] {
        if (is_tail) {
          ++result.torn_tail_lines;
        } else {
          ++result.malformed_lines;
        }
      };
      // Checksum gate first: a line whose CRC32C member disagrees is
      // bit rot even when it still parses — structural validation
      // alone would fold a silently-wrong record into campaign state.
      // Legacy lines without the member pass through to the parser.
      if (obs::VerifyLineChecksum(lines[i]) ==
          obs::LineChecksum::kMismatch) {
        if (is_tail) {
          ++result.torn_tail_lines;
        } else {
          ++result.corrupt_lines;
        }
        continue;
      }
      StatusOr<JsonValue> parsed = ParseJson(lines[i]);
      if (!parsed.ok() || !parsed->is_object()) {
        reject();
        continue;
      }
      const JsonValue& record = *parsed;
      const JsonValue* type = record.Find("type");
      if (type == nullptr || !type->is_string() ||
          type->string_value != "campaign") {
        // Unknown record types are forward-compatible, not corruption.
        continue;
      }
      const JsonValue* id = record.Find("id");
      const JsonValue* state = record.Find("state");
      if (id == nullptr || !id->is_string() || state == nullptr ||
          !state->is_string()) {
        reject();
        continue;
      }
      StatusOr<CampaignState> parsed_state =
          ParseCampaignState(state->string_value);
      if (!parsed_state.ok()) {
        reject();
        continue;
      }
      const JsonValue* step = record.Find("step");
      const JsonValue* reward = record.Find("reward");
      const JsonValue* best = record.Find("best_reward");
      const JsonValue* restarts = record.Find("restarts");
      const JsonValue* token = record.Find("token");
      const JsonValue* detail = record.Find("detail");
      const std::uint64_t step_index =
          (step != nullptr && step->is_number())
              ? static_cast<std::uint64_t>(step->number_value)
              : 0;
      const std::uint64_t record_token =
          (token != nullptr && token->is_number())
              ? static_cast<std::uint64_t>(token->number_value)
              : 0;

      CampaignReplay& entry = result.campaigns[id->string_value];
      // Step rewards merge across ownership epochs (higher token wins a
      // step) because the committed values are deterministic — epoch N+1
      // resumed from epoch N's checkpoint reproduces the same rewards.
      if (*parsed_state == CampaignState::kCheckpointed && step_index > 0 &&
          reward != nullptr && reward->is_number()) {
        std::uint64_t& step_owner =
            step_tokens[id->string_value][step_index];
        if (record_token >= step_owner) {
          entry.step_rewards[step_index] = reward->number_value;
          step_owner = record_token;
        }
      }
      // Everything else is token-aware last-writer-wins: a record below
      // the campaign's winning epoch is a fenced-out owner's stale write
      // and must not override the new owner's state. Outranked kPending
      // records are skipped silently — every worker journals pending
      // for each campaign it has no history for, so those duplicates
      // are expected, not zombie writes.
      if (record_token < entry.token) {
        if (*parsed_state != CampaignState::kPending) ++result.stale_records;
        continue;
      }
      entry.token = record_token;
      entry.state = *parsed_state;
      if (step_index > entry.steps_completed &&
          (*parsed_state == CampaignState::kCheckpointed ||
           *parsed_state == CampaignState::kPreempted ||
           IsTerminal(*parsed_state))) {
        entry.steps_completed = step_index;
      }
      if (best != nullptr && best->is_number() &&
          best->number_value > entry.best_reward) {
        entry.best_reward = best->number_value;
      }
      if (restarts != nullptr && restarts->is_number()) {
        const auto r = static_cast<std::uint64_t>(restarts->number_value);
        if (r > entry.restarts) entry.restarts = r;
      }
      if (detail != nullptr && detail->is_string()) {
        entry.detail = detail->string_value;
      }
    }
  }
  return result;
}

}  // namespace poisonrec::orch
