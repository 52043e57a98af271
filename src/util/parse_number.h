// Strict whole-string number parsing for values a person types: CLI flags
// and training-config lines.
//
// std::stoi and friends accept a numeric prefix ("2x" -> 2), leading
// whitespace, and a '-' on unsigned targets ("-1" -> 2^64-1).  Here the
// whole text must be one number of the target type: no leading/trailing
// bytes, no '+', no sign on unsigned types, in range for the type, and
// finite for floating point.
#ifndef M3DFL_UTIL_PARSE_NUMBER_H_
#define M3DFL_UTIL_PARSE_NUMBER_H_

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace m3dfl {

// Parses `text` into `out`; on failure returns false and leaves `out` as is.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

}  // namespace m3dfl

#endif  // M3DFL_UTIL_PARSE_NUMBER_H_
