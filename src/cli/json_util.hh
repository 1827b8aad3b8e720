/**
 * @file
 * The report plumbing every CLI shares: exact doubles and escaped
 * strings for JSON, and writing a report file.
 */

#ifndef ULPEAK_CLI_JSON_UTIL_HH
#define ULPEAK_CLI_JSON_UTIL_HH

#include <cstdio>
#include <fstream>
#include <string>

namespace ulpeak {
namespace cli {

/** Shortest form that round-trips every double exactly (%.17g). */
inline std::string
fmtDouble(double d)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    return buf;
}

/** @p s as the body of a JSON string literal: quotes, backslashes and
 *  every byte below 0x20 escaped. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Write @p text to @p path; when the file cannot be opened, print
 *  "TOOL: cannot write PATH" to stderr and return false. */
inline bool
writeReport(const char *tool, const std::string &path,
            const std::string &text)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
        return false;
    }
    out << text;
    return true;
}

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_JSON_UTIL_HH
