// Lexical helpers shared by the text grammars: the --faults, --traffic and
// --thermal spec parsers and the ssmdvfs CLI's number and list flags.
// Numbers are strict — a token parses only when all of it is a number — and
// printed numbers survive a strtod round trip, so a spec's print() output
// parses back to the same value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ssm {

/// Splits `s` on `sep`; empty tokens are dropped.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char sep);

/// `s` without its leading and trailing spaces and tabs.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// `token` as a double (strtod syntax), or nullopt unless strtod consumes
/// all of it.
[[nodiscard]] std::optional<double> toDouble(std::string_view token);

/// `token` as a base-10 integer (strtoll syntax), or nullopt unless strtoll
/// consumes all of it.
[[nodiscard]] std::optional<std::int64_t> toInt64(std::string_view token);

/// %.17g: the shortest printf form that survives a strtod round trip.
[[nodiscard]] std::string formatDouble(double v);

}  // namespace ssm
