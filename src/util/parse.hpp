/**
 * @file
 * Strict CLI value parsing.
 *
 * The same contract as WSS_JOBS (exec::ThreadPool): the whole string
 * must be a plain positive decimal integer — "8x", "", " 4", "+4",
 * "0" and "-2" are all rejected. The difference is the failure mode:
 * an environment knob falls back with a warning (a typo should not
 * kill a long campaign), but an explicit command-line argument is a
 * stated intent, so a malformed one is a fatal error — silently
 * running with a different seed or rank count than the user asked
 * for would poison every artifact downstream. Durations and other
 * numbers follow the same rule: a whole-string finite decimal (above
 * zero for durations) or integer, nothing else.
 */

#ifndef WSS_UTIL_PARSE_HPP
#define WSS_UTIL_PARSE_HPP

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/logging.hpp"

namespace wss::util {

/**
 * Parse @p value as a strictly positive decimal integer in
 * [1, @p max]. fatal() — naming @p what and echoing the offending
 * text — on anything else: empty, non-numeric, trailing junk, signs,
 * whitespace, zero, negative, or out of range.
 */
inline std::int64_t
parsePositiveInt(const std::string &value, const char *what,
                 std::int64_t max = INT64_MAX)
{
    const char *text = value.c_str();
    char *end = nullptr;
    errno = 0;
    const long long n = std::strtoll(text, &end, 10);
    // strtoll alone would accept " 4", "+4" and "8x"; require the
    // value to be exactly a string of decimal digits.
    if (text[0] < '0' || text[0] > '9' || errno != 0 || end == text ||
        *end != '\0' || n <= 0 || n > max)
        fatal(what, "='", value, "' is not a positive integer (1..",
              max, ")");
    return static_cast<std::int64_t>(n);
}

/**
 * Parse @p value as a whole decimal integer ("12", "-3"). fatal() —
 * naming @p what and echoing the offending text — on anything else:
 * empty, non-numeric, trailing junk ("2x", "1e5", "1.5"), a '+' sign,
 * whitespace, or outside the range of a 64-bit integer.
 */
inline std::int64_t
parseInteger(const std::string &value, const char *what)
{
    const char *text = value.c_str();
    const char *digits = text[0] == '-' ? text + 1 : text;
    char *end = nullptr;
    errno = 0;
    const long long n = std::strtoll(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(digits[0])) ||
        errno != 0 || *end != '\0')
        fatal(what, "='", value, "' is not an integer");
    return static_cast<std::int64_t>(n);
}

namespace detail {

/// True when @p value is exactly a finite plain decimal (an optional
/// leading '-', then digits with an optional point and exponent); the
/// number is stored in @p out.
inline bool
finiteDecimal(const std::string &value, double &out)
{
    const char *text = value.c_str();
    const char *digits = text[0] == '-' ? text + 1 : text;
    char *end = nullptr;
    errno = 0;
    out = std::strtod(text, &end);
    // strtod alone would accept " 1", "1x", "nan", "inf" and "0x1p3";
    // require a plain decimal that starts with a digit or a point.
    const bool decimal =
        (std::isdigit(static_cast<unsigned char>(digits[0])) ||
         digits[0] == '.') &&
        value.find_first_not_of("0123456789.eE+-") == std::string::npos;
    return decimal && errno == 0 && end != text && *end == '\0' &&
           std::isfinite(out);
}

} // namespace detail

/**
 * Parse @p value as a finite decimal number of seconds above 0
 * ("30", "0.2", "1e-3"). fatal() — naming @p what and echoing the
 * offending text — on anything else: empty, non-numeric, trailing
 * junk, signs, whitespace, hex, "nan", "inf", zero, or out of range.
 */
inline double
parsePositiveSeconds(const std::string &value, const char *what)
{
    double s = 0.0;
    if (!detail::finiteDecimal(value, s) || !(s > 0.0))
        fatal(what, "='", value,
              "' is not a positive number of seconds");
    return s;
}

/**
 * Parse @p value as a finite decimal number ("0.7", "-2", "1e-3").
 * fatal() — naming @p what and echoing the offending text — on
 * anything else: empty, non-numeric, trailing junk, a '+' sign,
 * whitespace, hex, "nan", "inf", or out of double range.
 */
inline double
parseFiniteNumber(const std::string &value, const char *what)
{
    double v = 0.0;
    if (!detail::finiteDecimal(value, v))
        fatal(what, "='", value, "' is not a finite number");
    return v;
}

} // namespace wss::util

#endif // WSS_UTIL_PARSE_HPP
