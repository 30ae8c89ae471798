/**
 * @file
 * Whole-token number parsing, shared by the config getters and the
 * JSONL field reader: `12x`, `4.0` for an integer or `-5` for an
 * unsigned type is not a number.
 */

#ifndef NOX_COMMON_PARSE_HPP
#define NOX_COMMON_PARSE_HPP

#include <charconv>
#include <string_view>

namespace nox {

/** Parse all of @p text as a @p T by std::from_chars rules (no
 *  leading spaces or '+'). @return false when any character is left
 *  over or the value does not fit; @p out is then left unchanged. */
template <class T>
bool
parseWhole(std::string_view text, T &out)
{
    const char *last = text.data() + text.size();
    T v{};
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (text.empty() || ec != std::errc() || ptr != last)
        return false;
    out = v;
    return true;
}

} // namespace nox

#endif // NOX_COMMON_PARSE_HPP
