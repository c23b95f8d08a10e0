// Small string utilities shared by the CSV layer, flag parser and reporters.
#pragma once

#include <string>
#include <string_view>

namespace aladdin {

// Strip ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

// Locale-independent conversions that report failure instead of throwing.
bool ParseInt64(std::string_view s, std::int64_t& out);
bool ParseDouble(std::string_view s, double& out);

// "12345678" -> "12,345,678" (for human-readable bench tables).
std::string WithThousands(std::int64_t v);

// Fixed-precision double ("%.*f") without iostream state leakage.
std::string FormatFixed(double v, int digits);

}  // namespace aladdin
