/**
 * @file
 * The one command-line parser.  A tool describes its flags as a table
 * of Flag rows and hands argv to parseFlags(); the same table yields
 * the usage line.  A value is accepted only when its whole text parses
 * within the row's bounds: no trailing garbage, no sign on an unsigned
 * value, no NaN or infinity — the rule lives in parseInt, parseUint
 * and parseReal, which every other decoder of outside text shares:
 * wire fields, machine specs, trace ids, cache keys, the fault spec
 * and source literals.
 */

#ifndef SQUARE_COMMON_FLAGS_H
#define SQUARE_COMMON_FLAGS_H

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace square {

/** Whole-text decimal integer in [min, max]. */
bool parseInt(std::string_view text, int64_t min, int64_t max,
              int64_t &out);

/** Whole-text decimal digits (no sign) that fit in [0, max]. */
bool parseUint(std::string_view text, uint64_t &out,
               uint64_t max = std::numeric_limits<uint64_t>::max());

/** Whole-text hex digits of either case (no sign, no "0x") that fit. */
bool parseUintHex(std::string_view text, uint64_t &out);

/** Whole-text finite real in [min, max]. */
bool parseReal(std::string_view text, double min, double max,
               double &out);

/** One row of a tool's command line: `--name` or `--name=VALUE`. */
struct Flag
{
    std::string name;        ///< without the leading "--"
    std::string placeholder; ///< shown as --name=PLACEHOLDER; "" = switch
    /**
     * Apply one occurrence (a switch gets an empty value).  False
     * rejects the value; @p why may add a reason to the message.
     */
    std::function<bool(std::string_view value, std::string &why)> set;
};

/** A switch: `--name` sets @p out. */
Flag switchFlag(std::string name, bool &out);
/** Any text, stored as given (the last occurrence wins). */
Flag textFlag(std::string name, std::string placeholder, std::string &out);
/** A repeatable flag: every occurrence appends its value. */
Flag listFlag(std::string name, std::string placeholder,
              std::vector<std::string> &out);
/** A finite real flag in [min, max]. */
Flag realFlag(std::string name, std::string placeholder, double &out,
              double min, double max);

/** An integer flag in [min, max], stored into any arithmetic @p out. */
template <typename T>
Flag
intFlag(std::string name, T &out, int64_t min, int64_t max)
{
    return {std::move(name), "N",
            [&out, min, max](std::string_view value, std::string &) {
                int64_t v = 0;
                if (!parseInt(value, min, max, v))
                    return false;
                out = static_cast<T>(v);
                return true;
            }};
}

/** An unsigned flag: digits only, so "-1" cannot wrap. */
template <typename T>
Flag
uintFlag(std::string name, T &out)
{
    return {std::move(name), "N",
            [&out](std::string_view value, std::string &) {
                uint64_t v = 0;
                if (!parseUint(value, v, std::numeric_limits<T>::max()))
                    return false;
                out = static_cast<T>(v);
                return true;
            }};
}

/**
 * Print "usage: <tool> [--flag=PLACEHOLDER]... <operands>" for @p flags
 * to stderr, the tool named by the last component of @p argv0.
 */
void printUsage(const char *argv0, const std::vector<Flag> &flags,
                std::string_view operands = {});

/**
 * Apply argv[1..argc) to @p flags in order.  Arguments that do not
 * start with "--" are appended to @p positional (a usage error when it
 * is null; @p operands names them in the usage line).  An unknown flag
 * prints the usage line generated from the rows, a rejected value
 * prints "<tool>: bad --name value"; both return false, and the tool
 * exits 1.
 */
bool parseFlags(int argc, char **argv, const std::vector<Flag> &flags,
                std::vector<std::string> *positional = nullptr,
                std::string_view operands = {});

} // namespace square

#endif // SQUARE_COMMON_FLAGS_H
