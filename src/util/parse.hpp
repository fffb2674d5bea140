#pragma once
// Whole-string number parsing shared by util::Cli's typed accessors and the
// env_* helpers: both reject a value that is not wholly a number.

#include <charconv>
#include <string_view>
#include <system_error>

namespace minicost::util {

/// Parses the whole of `text` as a T; false on leftovers, a bare sign,
/// an empty string or overflow.
template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace minicost::util
