#include "data/dataset.h"

#include <algorithm>
#include <cstdint>

#include "util/csv.h"
#include "util/logging.h"

namespace poisonrec::data {

Dataset::Dataset(std::size_t num_users, std::size_t num_items)
    : num_items_(num_items),
      sequences_(num_users),
      popularity_(num_items, 0) {}

void Dataset::Add(UserId user, ItemId item) {
  POISONREC_CHECK_LT(user, sequences_.size());
  POISONREC_CHECK_LT(item, num_items_);
  sequences_[user].push_back(item);
  ++popularity_[item];
  ++num_interactions_;
}

void Dataset::AddSequence(UserId user, const std::vector<ItemId>& items) {
  for (ItemId item : items) Add(user, item);
}

const std::vector<ItemId>& Dataset::Sequence(UserId user) const {
  POISONREC_CHECK_LT(user, sequences_.size());
  return sequences_[user];
}

std::vector<ItemId> Dataset::ItemsByPopularity() const {
  std::vector<ItemId> items(num_items_);
  for (std::size_t i = 0; i < num_items_; ++i) items[i] = i;
  std::sort(items.begin(), items.end(), [this](ItemId a, ItemId b) {
    if (popularity_[a] != popularity_[b]) {
      return popularity_[a] < popularity_[b];
    }
    return a < b;
  });
  return items;
}

std::vector<UserId> Dataset::UsersWithMinLength(std::size_t min_len) const {
  std::vector<UserId> users;
  for (UserId u = 0; u < sequences_.size(); ++u) {
    if (sequences_[u].size() >= min_len) users.push_back(u);
  }
  return users;
}

std::vector<Interaction> Dataset::AllInteractions() const {
  std::vector<Interaction> out;
  out.reserve(num_interactions_);
  for (UserId u = 0; u < sequences_.size(); ++u) {
    for (std::size_t p = 0; p < sequences_[u].size(); ++p) {
      out.push_back({u, sequences_[u][p], p});
    }
  }
  return out;
}

LeaveOneOutSplit SplitLeaveOneOut(const Dataset& dataset) {
  LeaveOneOutSplit split{Dataset(dataset.num_users(), dataset.num_items()),
                         {},
                         {}};
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    const std::vector<ItemId>& seq = dataset.Sequence(u);
    if (seq.size() < 3) {
      split.train.AddSequence(u, seq);
      continue;
    }
    for (std::size_t p = 0; p + 2 < seq.size(); ++p) {
      split.train.Add(u, seq[p]);
    }
    split.validation.push_back({u, seq[seq.size() - 2], seq.size() - 2});
    split.test.push_back({u, seq[seq.size() - 1], seq.size() - 1});
  }
  return split;
}

StatusOr<Dataset> LoadDatasetCsv(const std::string& path,
                                 std::size_t min_users,
                                 std::size_t min_items) {
  POISONREC_ASSIGN_OR_RETURN(auto rows, ReadCsv(path));
  std::size_t max_user = 0;
  std::size_t max_item = 0;
  std::vector<std::pair<std::size_t, std::size_t>> events;
  events.reserve(rows.size());
  for (const auto& row : rows) {
    if (row.size() < 2) {
      return Status::InvalidArgument("CSV row with fewer than 2 fields in " +
                                     path);
    }
    // An id of SIZE_MAX would wrap the id space's size (max + 1) to 0.
    const std::optional<std::size_t> user = ParseCount(row[0]);
    if (!user.has_value() || *user == SIZE_MAX) {
      return Status::InvalidArgument("bad user id '" + row[0] + "'");
    }
    const std::optional<std::size_t> item = ParseCount(row[1]);
    if (!item.has_value() || *item == SIZE_MAX) {
      return Status::InvalidArgument("bad item id '" + row[1] + "'");
    }
    max_user = std::max(max_user, *user);
    max_item = std::max(max_item, *item);
    events.emplace_back(*user, *item);
  }
  Dataset dataset(std::max(min_users, events.empty() ? 0 : max_user + 1),
                  std::max(min_items, events.empty() ? 0 : max_item + 1));
  for (const auto& [user, item] : events) {
    dataset.Add(user, item);
  }
  return dataset;
}

Status SaveDatasetCsv(const Dataset& dataset, const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(dataset.num_interactions());
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    for (ItemId item : dataset.Sequence(u)) {
      rows.push_back({std::to_string(u), std::to_string(item)});
    }
  }
  return WriteCsv(path, rows);
}

}  // namespace poisonrec::data
