/**
 * @file
 * The one checked parser for numeric command-line values, shared by
 * triagesim, the figure benches and the tools: a malformed value ends
 * in one error line naming the flag and a false return, never in an
 * uncaught exception or a silent 0.
 */
#ifndef TRIAGE_UTIL_PARSE_NUMBER_HPP
#define TRIAGE_UTIL_PARSE_NUMBER_HPP

#include <charconv>
#include <cmath>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace triage::util {

/** The file name part of @p argv0, for error lines. */
inline std::string_view
prog_name(const char* argv0)
{
    const std::string_view p(argv0);
    const std::size_t slash = p.rfind('/');
    return slash == std::string_view::npos ? p : p.substr(slash + 1);
}

/**
 * Parse the value @p v of --@p flag into @p out. An integer takes only
 * a whole unsigned decimal string, or hexadecimal after a `0x` prefix,
 * in T's range; a floating-point value takes a whole decimal number
 * that is finite and greater than 0. @return false, after the line
 * "<prog>: --<flag>=<v>: expected ..." on stderr, otherwise.
 */
template <typename T>
bool
parse_number(std::string_view prog, std::string_view flag,
             std::string_view v, T& out)
{
    static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
    T x{};
    std::string_view digits = v;
    int base = 10;
    if constexpr (std::is_integral_v<T>) {
        if (digits.size() > 2 && digits[0] == '0' &&
            (digits[1] == 'x' || digits[1] == 'X')) {
            digits.remove_prefix(2);
            base = 16;
        }
    }
    const char* end = digits.data() + digits.size();
    bool ok = !digits.empty();
    if constexpr (std::is_integral_v<T>) {
        const auto [stop, ec] = std::from_chars(digits.data(), end, x, base);
        ok = ok && ec == std::errc{} && stop == end;
    } else {
        const auto [stop, ec] = std::from_chars(digits.data(), end, x);
        ok = ok && ec == std::errc{} && stop == end && std::isfinite(x) &&
             x > 0;
    }
    if (!ok) {
        std::cerr << prog << ": --" << flag << "=" << v << ": expected "
                  << (std::is_floating_point_v<T>
                          ? std::string("a finite number > 0")
                          : "an unsigned integer <= " +
                                std::to_string(
                                    std::numeric_limits<T>::max()))
                  << "\n";
        return false;
    }
    out = x;
    return true;
}

} // namespace triage::util

#endif // TRIAGE_UTIL_PARSE_NUMBER_HPP
