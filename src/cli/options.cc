#include "cli/options.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace ulpeak {
namespace cli {

namespace {

std::string
joinChoices(const std::vector<std::string> &choices)
{
    std::string out;
    for (const std::string &c : choices)
        out += (out.empty() ? "" : "|") + c;
    return out;
}

} // namespace

void
appendCommaList(const std::string &v, std::vector<std::string> &dst)
{
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            dst.push_back(item);
}

Option
positiveOpt(std::string flag, std::string metavar, std::string help,
            double &dst)
{
    return customOpt(flag, metavar, help,
                     [&dst](const std::string &s, std::string &why) {
                         char *end = nullptr;
                         double d = s.empty() ? 0.0
                                              : std::strtod(s.c_str(), &end);
                         if (!end || *end != '\0' || !(d > 0.0) ||
                             !std::isfinite(d)) {
                             why = "expected a positive number, got \"" + s +
                                   "\"";
                             return false;
                         }
                         dst = d;
                         return true;
                     });
}

bool
parseOptions(int argc, const char *const *argv,
             const std::vector<Option> &table, const ApplyFn &positional,
             bool &help, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            help = true;
            continue;
        }
        const Option *opt = nullptr;
        std::string value;
        bool given = false; // a value was supplied
        for (const Option &o : table) {
            if (a == o.flag) {
                opt = &o;
            } else if (o.value == Option::Value::Attached &&
                       a.compare(0, o.flag.size() + 1, o.flag + "=") == 0) {
                opt = &o;
                value = a.substr(o.flag.size() + 1);
                given = true;
            }
            if (opt)
                break;
        }
        if (!opt) {
            if (!a.empty() && a[0] == '-')
                err = "unknown option: " + a;
            else if (!positional)
                err = "unexpected argument: " + a;
            else if (positional(a, err))
                continue;
            return false;
        }
        if (opt->value == Option::Value::Next && !given) {
            if (i + 1 >= argc) {
                err = opt->flag + ": missing value";
                return false;
            }
            value = argv[++i];
            given = true;
        }
        std::string why;
        if (given && !opt->choices.empty() &&
            std::find(opt->choices.begin(), opt->choices.end(), value) ==
                opt->choices.end())
            why = "expected " + joinChoices(opt->choices) + ", got \"" +
                  value + "\"";
        else if (opt->apply(value, why))
            continue;
        err = opt->flag + ": " + why;
        return false;
    }
    return true;
}

std::string
usageText(const std::vector<Option> &table, size_t column)
{
    std::string out;
    auto emit = [&](std::string line, const std::string &help) {
        if (line.size() + 1 > column) {
            out += line + "\n";
            line.clear();
        }
        std::stringstream ss(help);
        std::string text;
        while (std::getline(ss, text)) {
            line.resize(column, ' ');
            out += line + text + "\n";
            line.clear();
        }
    };
    for (const Option &o : table)
        emit("  " + o.flag +
                 (o.value == Option::Value::Attached
                      ? "[=" + joinChoices(o.choices) + "]"
                      : o.metavar.empty() ? "" : " " + o.metavar),
             o.help);
    emit("  --help", "this text");
    return out;
}

int
usageError(const char *tool, const std::string &err,
           const std::string &usage)
{
    std::fprintf(stderr, "%s: %s\n\n%s", tool, err.c_str(), usage.c_str());
    return 2;
}

} // namespace cli
} // namespace ulpeak
