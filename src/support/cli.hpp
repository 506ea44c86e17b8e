/**
 * @file
 * Minimal command-line option parsing shared by examples and benches.
 *
 * Supports `--name value`, `--name=value` and boolean `--flag` forms.
 * Unknown options raise a FatalError listing the registered options.
 */

#ifndef RSEL_SUPPORT_CLI_HPP
#define RSEL_SUPPORT_CLI_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rsel {

/** Parsed command-line options with typed accessors and defaults. */
class CliOptions
{
  public:
    /**
     * Register an option before parsing.
     * @param name         option name without the leading dashes.
     * @param defaultValue value used when the option is absent.
     * @param help         one-line description for usage text.
     */
    void define(const std::string &name, const std::string &defaultValue,
                const std::string &help);

    /**
     * Parse argv. @throws FatalError on unknown or malformed options,
     * or prints usage and sets helpRequested() for --help.
     */
    void parse(int argc, const char *const *argv);

    /** String value of an option. @pre option was defined. */
    const std::string &get(const std::string &name) const;

    /**
     * Integer value of an option. @throws FatalError naming the
     * option on non-numeric, trailing-garbage or out-of-range input.
     */
    std::int64_t getInt(const std::string &name) const;

    /**
     * Unsigned 64-bit value of an option. @throws FatalError naming
     * the option on non-numeric, negative, trailing-garbage or
     * out-of-range input.
     */
    std::uint64_t getUint(const std::string &name) const;

    /**
     * Unsigned value of an option that lands in a 32-bit field.
     * @throws FatalError naming the option on a value above
     * UINT32_MAX, or on any input getUint rejects.
     */
    std::uint32_t getUint32(const std::string &name) const;

    /**
     * Index of the option's value in `choices`. @throws FatalError
     * naming the option and the choices on any other value.
     */
    std::size_t getChoice(const std::string &name,
                          const std::vector<std::string> &choices) const;

    /**
     * Double value of an option. @throws FatalError naming the
     * option on non-numeric or out-of-range input.
     */
    double getDouble(const std::string &name) const;

    /** Boolean value: "1", "true", "yes", "on" are true. */
    bool getBool(const std::string &name) const;

    /** True when --help was passed. */
    bool helpRequested() const { return helpRequested_; }

    /** Usage text listing all defined options. */
    std::string usage(const std::string &program) const;

    /** Positional (non-option) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    struct Option
    {
        std::string value;
        std::string help;
    };

    std::map<std::string, Option> options_;
    std::vector<std::string> positional_;
    bool helpRequested_ = false;
};

} // namespace rsel

#endif // RSEL_SUPPORT_CLI_HPP
