#include "support/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "support/error.hpp"

namespace rsel {

namespace {

/**
 * Reject values strtoll/strtoull/strtod would silently mis-parse:
 * empty strings, trailing garbage ("12abc"), wholly non-numeric
 * text ("abc" parses as 0), and out-of-range magnitudes. `end` is
 * the end pointer the strto* call produced.
 */
void
checkNumeric(const std::string &name, const std::string &value,
             const char *end, const char *kind)
{
    if (value.empty() || end != value.c_str() + value.size())
        fatal("option --" + name + " expects " + kind + " value, got '" +
              value + "'");
    if (errno == ERANGE)
        fatal("option --" + name + " value '" + value +
              "' is out of range");
}

} // namespace

void
CliOptions::define(const std::string &name, const std::string &defaultValue,
                   const std::string &help)
{
    options_[name] = Option{defaultValue, help};
}

void
CliOptions::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            helpRequested_ = true;
            continue;
        }
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }

        std::string name = arg.substr(2);
        std::string value;
        bool haveValue = false;

        const auto eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            haveValue = true;
        }

        auto it = options_.find(name);
        if (it == options_.end())
            fatal("unknown option --" + name + "\n" + usage(argv[0]));

        if (!haveValue) {
            // `--name value` form, or bare boolean flag.
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            } else {
                value = "true";
            }
        }
        it->second.value = value;
    }
}

const std::string &
CliOptions::get(const std::string &name) const
{
    auto it = options_.find(name);
    RSEL_ASSERT(it != options_.end(), "option not defined: " + name);
    return it->second.value;
}

std::int64_t
CliOptions::getInt(const std::string &name) const
{
    const std::string &v = get(name);
    char *end = nullptr;
    errno = 0;
    const std::int64_t result = std::strtoll(v.c_str(), &end, 0);
    checkNumeric(name, v, end, "an integer");
    return result;
}

std::uint64_t
CliOptions::getUint(const std::string &name) const
{
    const std::string &v = get(name);
    // strtoull silently wraps negative input ("-5" becomes 2^64-5);
    // reject the sign outright.
    if (v.find('-') != std::string::npos)
        fatal("option --" + name +
              " expects a non-negative integer, got '" + v + "'");
    char *end = nullptr;
    errno = 0;
    const std::uint64_t result = std::strtoull(v.c_str(), &end, 0);
    checkNumeric(name, v, end, "a non-negative integer");
    return result;
}

std::uint32_t
CliOptions::getUint32(const std::string &name) const
{
    const std::uint64_t v = getUint(name);
    if (v > std::numeric_limits<std::uint32_t>::max())
        fatal("option --" + name + " value '" + get(name) +
              "' does not fit in 32 bits");
    return static_cast<std::uint32_t>(v);
}

std::size_t
CliOptions::getChoice(const std::string &name,
                      const std::vector<std::string> &choices) const
{
    const std::string &v = get(name);
    std::string valid;
    for (std::size_t i = 0; i < choices.size(); ++i) {
        if (v == choices[i])
            return i;
        valid += (i == 0 ? "" : ", ") + choices[i];
    }
    fatal("option --" + name + " expects one of " + valid + ", got '" +
          v + "'");
}

double
CliOptions::getDouble(const std::string &name) const
{
    const std::string &v = get(name);
    char *end = nullptr;
    errno = 0;
    const double result = std::strtod(v.c_str(), &end);
    checkNumeric(name, v, end, "a number");
    return result;
}

bool
CliOptions::getBool(const std::string &name) const
{
    const std::string &v = get(name);
    return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::string
CliOptions::usage(const std::string &program) const
{
    std::ostringstream oss;
    oss << "usage: " << program << " [options]\n";
    for (const auto &[name, opt] : options_) {
        oss << "  --" << name << " (default: "
            << (opt.value.empty() ? "<empty>" : opt.value) << ")\n"
            << "      " << opt.help << '\n';
    }
    return oss.str();
}

} // namespace rsel
