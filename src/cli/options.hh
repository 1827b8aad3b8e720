/**
 * @file
 * The one command-line option parser of the four tools (ulpeak,
 * ulfault, ullint, ulfuzz). A tool describes its flags as a table of
 * Option rows -- flag, metavar, help text and how the value parses --
 * that binds to the fields of its options struct (`peakOptions(o)` and
 * friends in the drivers). parseOptions walks argv against the table
 * and usageText renders the --help option list from the same rows, so
 * a flag cannot parse without being documented.
 *
 * Every value is a whole token ("4x" or "1e3" for an integer, "8e6x"
 * for a frequency are errors, not truncated), integers are
 * range-checked against the field they land in, and every error names
 * its flag.
 */

#ifndef ULPEAK_CLI_OPTIONS_HH
#define ULPEAK_CLI_OPTIONS_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace ulpeak {
namespace cli {

/** Takes a value, or a positional argument; on a bad one returns false
 *  with the reason in @p why. */
using ApplyFn = std::function<bool(const std::string &v, std::string &why)>;

/** One row of a tool's option table. */
struct Option {
    enum class Value : uint8_t {
        None,     ///< a switch: `--flag`
        Next,     ///< the next argv token, verbatim: `--flag V`
        Attached, ///< optional and attached: `--flag` or `--flag=V`
    };
    std::string flag;
    std::string metavar; ///< the value's name in the help text (an
                         ///< Attached row shows its choices instead)
    std::string help;    ///< '\n' starts a new help line
    Value value = Value::Next;
    std::vector<std::string> choices; ///< non-empty: the allowed values
    ApplyFn apply; ///< gets "" for a switch or a bare Attached flag
};

/** Append the non-empty items of the comma list @p v to @p dst. */
void appendCommaList(const std::string &v, std::vector<std::string> &dst);

/** Parse @p s as a whole-token unsigned integer (decimal, or 0x / 0
 *  prefixed) that fits @p dst's type and is >= @p min; false with the
 *  reason in @p why. */
template <class T>
bool
parseInteger(const std::string &s, T &dst, uint64_t min, std::string &why)
{
    // strtoull alone would accept "-1" (wrapping to 2^64-1) and stop
    // at trailing garbage; the whole token must be the number.
    const uint64_t max = std::numeric_limits<T>::max();
    char *end = nullptr;
    errno = 0;
    unsigned long long v = s.empty() || s.find('-') != std::string::npos
                               ? 0
                               : std::strtoull(s.c_str(), &end, 0);
    if (!end || *end != '\0' || errno == ERANGE || v < min || v > max) {
        why = "expected an integer in [" + std::to_string(min) + ", " +
              std::to_string(max) + "], got \"" + s + "\"";
        return false;
    }
    dst = T(v);
    return true;
}

/// @name Row factories, one per kind of value: a value checked by a
/// custom @p apply, a switch, an integer that must fit @p dst's type
/// and be >= @p min, a strictly positive finite double, a verbatim
/// string, a comma list (an error while @p dst stays empty), one of
/// @p choices handed to @p set, and `--flag[=CHOICE]`, which sets @p on
/// and, when a value is attached, @p dst (no choice is "", so an empty
/// value is the bare flag).
/// @{
inline Option
customOpt(std::string flag, std::string metavar, std::string help,
          ApplyFn apply)
{
    return {flag, metavar, help, Option::Value::Next, {}, apply};
}

inline Option
switchOpt(std::string flag, std::string help, bool &dst)
{
    return {flag, "", help, Option::Value::None, {},
            [&dst](const std::string &, std::string &) {
                return dst = true;
            }};
}

template <class T>
Option
intOpt(std::string flag, std::string metavar, std::string help, T &dst,
       uint64_t min = 0)
{
    return customOpt(flag, metavar, help,
                     [&dst, min](const std::string &v, std::string &why) {
                         return parseInteger(v, dst, min, why);
                     });
}

Option positiveOpt(std::string flag, std::string metavar,
                   std::string help, double &dst);

inline Option
stringOpt(std::string flag, std::string metavar, std::string help,
          std::string &dst)
{
    return customOpt(flag, metavar, help,
                     [&dst](const std::string &v, std::string &) {
                         dst = v;
                         return true;
                     });
}

inline Option
listOpt(std::string flag, std::string metavar, std::string help,
        std::vector<std::string> &dst)
{
    return customOpt(flag, metavar, help,
                     [&dst](const std::string &v, std::string &why) {
                         appendCommaList(v, dst);
                         why = "empty list";
                         return !dst.empty();
                     });
}

inline Option
choiceOpt(std::string flag, std::string metavar, std::string help,
          std::vector<std::string> choices,
          std::function<void(const std::string &)> set)
{
    return {flag, metavar, help, Option::Value::Next, choices,
            [set](const std::string &v, std::string &) {
                set(v);
                return true;
            }};
}

inline Option
attachedChoiceOpt(std::string flag, std::string help,
                  std::vector<std::string> choices, bool &on,
                  std::string &dst)
{
    return {flag, "", help, Option::Value::Attached, choices,
            [&on, &dst](const std::string &v, std::string &) {
                if (!v.empty())
                    dst = v;
                return on = true;
            }};
}
/// @}

/**
 * Walk argv[1, @p argc) against @p table; arguments that are not flags
 * go to @p positional (null: they are errors). `--help` / `-h` set
 * @p help and parsing goes on, so help wins only if the rest of the
 * command line parses. On the first error returns false with a message
 * in @p err that names the flag or argument at fault.
 */
bool parseOptions(int argc, const char *const *argv,
                  const std::vector<Option> &table,
                  const ApplyFn &positional, bool &help, std::string &err);

/** The --help option list: every row of @p table plus --help, with the
 *  help text starting at @p column. */
std::string usageText(const std::vector<Option> &table, size_t column);

/** Print "TOOL: ERR" and @p usage to stderr; returns 2, the usage-error
 *  exit code. */
int usageError(const char *tool, const std::string &err,
               const std::string &usage);

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_OPTIONS_HH
