// Small string helpers shared across modules.

#ifndef WEBMON_UTIL_STRING_UTIL_H_
#define WEBMON_UTIL_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace webmon {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Case-insensitive substring test; used by the example applications for the
/// paper's `F1 CONTAINS %oil%` style predicates.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Parses a signed decimal integer; returns false on any non-numeric input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a double; returns false on any non-numeric input.
bool ParseDouble(std::string_view s, double* out);

/// Appends the decimal form of `value` to `out`, the number formatter of
/// the text encoders (arrival log, shard stream, aggregate result; their
/// golden suites pin these bytes). Integers print exactly. Doubles print
/// with 17 significant digits, the bytes printf's "%.17g" writes ("1.5",
/// "0.10000000000000001", "1e-300", "inf", "nan"), so every finite double
/// round-trips bit-exactly through strtod.
template <typename T>
void AppendNumber(std::string* out, T value) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  // Wide enough for any 64-bit integer and for "%.17g" of any double
  // ("-1.2345678901234567e-308" is 24 bytes).
  char buf[32];
  std::to_chars_result end;
  if constexpr (std::is_floating_point_v<T>) {
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, 17);
  } else {
    end = std::to_chars(buf, buf + sizeof(buf), value);
  }
  out->append(buf, end.ptr);
}

}  // namespace webmon

#endif  // WEBMON_UTIL_STRING_UTIL_H_
