/**
 * @file
 * The report plumbing every CLI shares: exact doubles, the one JSON
 * writer, and writing a report file.
 */

#ifndef ULPEAK_CLI_JSON_UTIL_HH
#define ULPEAK_CLI_JSON_UTIL_HH

#include <charconv>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ulpeak {
namespace cli {

/** Append @p v in decimal; a floating-point value with 17 significant
 *  digits (enough to round-trip every double), byte for byte what
 *  printf's "%.17g" writes. */
template <class T>
void
appendNumber(std::string &out, T v)
{
    char buf[32];
    std::to_chars_result r;
    if constexpr (std::is_floating_point_v<T>)
        r = std::to_chars(buf, buf + sizeof buf, double(v),
                          std::chars_format::general, 17);
    else
        r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

inline std::string
fmtDouble(double d)
{
    std::string s;
    appendNumber(s, d);
    return s;
}

/** How a JSON container lays out its members (see JsonWriter). */
enum class Layout { Block, Inline };

/**
 * The one JSON emitter of the ulpeak, ulfault and ullint reports. It
 * owns every quote, comma, escape and indent: callers write only
 * keys and values, and closing the outermost container appends the
 * trailing newline.
 *
 *  - Block: each member on its own line, indented two spaces past
 *    the line the container opened on; the closer on its own line at
 *    that line's indent (an empty Block is "[\n<indent>]").
 *  - Inline: members separated by ", "; the closer follows the last.
 *  - wrap(): the next member of the open Inline container starts on
 *    a new line, one column past the container's opener.
 */
class JsonWriter {
  public:
    JsonWriter &beginObject(Layout l = Layout::Block) { return open('{', l); }
    JsonWriter &beginArray(Layout l = Layout::Block) { return open('[', l); }

    JsonWriter &end()
    {
        Frame f = stack_.back();
        stack_.pop_back();
        if (f.layout == Layout::Block)
            newline(f.indent - 2);
        out_ += f.closer;
        if (stack_.empty())
            newline(0);
        return *this;
    }

    JsonWriter &key(std::string_view k)
    {
        member();
        quoted(k);
        out_ += ": ";
        afterKey_ = true;
        return *this;
    }

    JsonWriter &wrap()
    {
        stack_.back().wrap = true;
        return *this;
    }

    /** A bool, a number, anything that converts to a string_view, or
     *  a sequence of these as an Inline array. */
    template <class T>
    JsonWriter &value(const T &v)
    {
        if constexpr (std::is_arithmetic_v<T> ||
                      std::is_convertible_v<const T &, std::string_view>) {
            member();
            if constexpr (std::is_same_v<T, bool>)
                out_ += v ? "true" : "false";
            else if constexpr (std::is_arithmetic_v<T>)
                appendNumber(out_, v);
            else
                quoted(v);
            return *this;
        } else {
            beginArray(Layout::Inline);
            for (const auto &e : v)
                value(e);
            return end();
        }
    }

    template <class T>
    JsonWriter &field(std::string_view k, const T &v)
    {
        return key(k).value(v);
    }

    std::string take() { return std::move(out_); }

  private:
    struct Frame {
        Layout layout;
        char closer;
        size_t indent; ///< Block: of the members; Inline: wrap column
        bool first = true, wrap = false;
    };

    JsonWriter &open(char opener, Layout layout)
    {
        member();
        size_t indent = layout == Layout::Block
                            ? lineIndent_ + 2
                            : out_.size() - lineStart_ + 1;
        out_ += opener;
        stack_.push_back({layout, opener == '{' ? '}' : ']', indent});
        return *this;
    }

    /** The separator in front of the next member, none after a key. */
    void member()
    {
        if (std::exchange(afterKey_, false) || stack_.empty())
            return;
        Frame &f = stack_.back();
        if (!f.first)
            out_ += ',';
        if (f.layout == Layout::Block || f.wrap)
            newline(f.indent);
        else if (!f.first)
            out_ += ' ';
        f.first = f.wrap = false;
    }

    void newline(size_t indent)
    {
        out_ += '\n';
        lineStart_ = out_.size();
        lineIndent_ = indent;
        out_.append(indent, ' ');
    }

    /** Quotes, backslashes and every byte below 0x20 escaped. */
    void quoted(std::string_view s)
    {
        static const char kHex[] = "0123456789abcdef";
        out_ += '"';
        for (char c : s) {
            if (c == '"' || c == '\\')
                out_ += {'\\', c};
            else if (static_cast<unsigned char>(c) >= 0x20)
                out_ += c;
            else if (c == '\n' || c == '\t' || c == '\r')
                out_ += {'\\', c == '\n' ? 'n' : c == '\t' ? 't' : 'r'};
            else
                out_ += {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<Frame> stack_;
    size_t lineStart_ = 0, lineIndent_ = 0; ///< of the current line
    bool afterKey_ = false;
};

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
