#include "util/csv.h"

#include <charconv>
#include <fstream>
#include <sstream>

namespace poisonrec {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else if (c != '\r') {
      current.push_back(c);
    }
  }
  fields.push_back(current);
  return fields;
}

std::optional<std::size_t> ParseCount(const std::string& text) {
  // from_chars takes no sign, space or prefix for an unsigned type.
  const char* const last = text.data() + text.size();
  std::size_t value = 0;
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last) return std::nullopt;
  return value;
}

StatusOr<std::vector<std::vector<std::string>>> ReadCsv(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open " + path);
  }
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(SplitCsvLine(line));
  }
  return rows;
}

Status WriteCsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out << ',';
      out << row[i];
    }
    out << '\n';
  }
  if (!out) {
    return Status::IoError("write failed for " + path);
  }
  return Status::OK();
}

}  // namespace poisonrec
