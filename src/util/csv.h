// Tiny CSV reader/writer used by the dataset loader and the benchmark
// harnesses that emit figure data.
#ifndef POISONREC_UTIL_CSV_H_
#define POISONREC_UTIL_CSV_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace poisonrec {

/// Splits one CSV line on commas. No quoting support — the formats this
/// library reads/writes are plain numeric tables.
std::vector<std::string> SplitCsvLine(const std::string& line);

/// Reads a whole CSV file into rows of fields. Skips empty lines.
StatusOr<std::vector<std::vector<std::string>>> ReadCsv(
    const std::string& path);

/// A count: decimal digits only (no sign, space or exponent) that fit a
/// size_t; nullopt otherwise. The dataset loader's id columns and the
/// CLI's count flags read this way.
std::optional<std::size_t> ParseCount(const std::string& text);

/// Writes rows of fields as CSV.
Status WriteCsv(const std::string& path,
                const std::vector<std::vector<std::string>>& rows);

}  // namespace poisonrec

#endif  // POISONREC_UTIL_CSV_H_
