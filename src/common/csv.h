// Minimal CSV reading/writing for trace (de)serialisation and bench output.
// Supports RFC-4180-style quoting for fields containing separators/quotes;
// that is all the trace format needs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace aladdin {

class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os, char sep = ',');

  CsvWriter& Field(std::string_view value);
  CsvWriter& Field(std::int64_t value);
  CsvWriter& Field(double value);
  // Terminate the current row.
  void EndRow();

 private:
  std::ostream& os_;
  char sep_;
  bool row_started_ = false;
  void WriteRaw(std::string_view s);
};

class CsvReader {
 public:
  explicit CsvReader(std::istream& is, char sep = ',');

  // Reads the next row into `fields`; returns false at EOF. Blank lines are
  // skipped. Quoted fields may contain separators and doubled quotes.
  bool NextRow(std::vector<std::string>& fields);

 private:
  std::istream& is_;
  char sep_;
};

}  // namespace aladdin
