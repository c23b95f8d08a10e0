// Small string utilities shared by the CSV layer, flag parser, reporters and
// the obs renderers.
#pragma once

#include <cstdint>
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

// Appends printf-formatted text to `out`, truncated to 319 bytes. No
// iostreams, so the obs renderers may call it on the listener's HTTP
// thread, which must not touch global locales.
void AppendF(std::string& out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

// Appends `s` escaped as the body of a JSON string (no quotes): '"', '\\',
// '\n' and '\t' get short escapes, every other byte below 0x20 \u00XX.
void AppendJsonEscaped(std::string& out, std::string_view s);

}  // namespace aladdin
