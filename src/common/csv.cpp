#include "common/csv.h"

#include <istream>
#include <ostream>

#include "common/strings.h"

namespace aladdin {

CsvWriter::CsvWriter(std::ostream& os, char sep) : os_(os), sep_(sep) {}

void CsvWriter::WriteRaw(std::string_view s) {
  if (row_started_) os_ << sep_;
  row_started_ = true;
  const bool needs_quotes =
      s.find(sep_) != std::string_view::npos ||
      s.find('"') != std::string_view::npos ||
      s.find('\n') != std::string_view::npos;
  if (!needs_quotes) {
    os_ << s;
    return;
  }
  os_ << '"';
  for (char c : s) {
    if (c == '"') os_ << '"';
    os_ << c;
  }
  os_ << '"';
}

CsvWriter& CsvWriter::Field(std::string_view value) {
  WriteRaw(value);
  return *this;
}

CsvWriter& CsvWriter::Field(std::int64_t value) {
  WriteRaw(std::to_string(value));
  return *this;
}

CsvWriter& CsvWriter::Field(double value) {
  WriteRaw(FormatFixed(value, 6));
  return *this;
}

void CsvWriter::EndRow() {
  os_ << '\n';
  row_started_ = false;
}

CsvReader::CsvReader(std::istream& is, char sep) : is_(is), sep_(sep) {}

bool CsvReader::NextRow(std::vector<std::string>& fields) {
  fields.clear();
  std::string line;
  // Skip blank lines.
  do {
    if (!std::getline(is_, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();
  } while (line.empty());

  std::string field;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep_) {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field.push_back(c);
    }
  }
  // Fields never span lines in our formats; an unterminated quote simply
  // closes at end of line rather than swallowing the rest of the file.
  fields.push_back(std::move(field));
  return true;
}

}  // namespace aladdin
