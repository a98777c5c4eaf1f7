/**
 * @file
 * The whole-string number parse shared by every reader of text from
 * outside the program: the environment knobs and the TRRIP_FAULT
 * spec.
 */

#ifndef TRRIP_UTIL_PARSE_HH
#define TRRIP_UTIL_PARSE_HH

#include <charconv>
#include <optional>
#include <string_view>

namespace trrip {

/**
 * @p text as one T spanning the whole string, else nullopt: an empty,
 * prefixed (" 2", "+2", "0x10"), suffixed ("4x", "150ms") or
 * out-of-range value fails, and so does a sign for an unsigned T.
 */
template <typename T>
std::optional<T>
parseWhole(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    return value;
}

} // namespace trrip

#endif // TRRIP_UTIL_PARSE_HH
