#include "common/flags.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace square {

namespace {

/** from_chars over the whole of @p text: no prefix, no tail. */
template <typename T, typename... Base>
bool
parseWhole(std::string_view text, T &out, Base... base)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out, base...);
    return ec == std::errc() && ptr == end;
}

/** The last path component of argv[0] (null when execed without one). */
std::string
toolName(const char *argv0)
{
    const std::string_view path = argv0 != nullptr ? argv0 : "";
    return std::string(path.substr(path.rfind('/') + 1));
}

} // namespace

bool
parseInt(std::string_view text, int64_t min, int64_t max, int64_t &out)
{
    int64_t v = 0;
    if (!parseWhole(text, v) || v < min || v > max)
        return false;
    out = v;
    return true;
}

bool
parseUint(std::string_view text, uint64_t &out, uint64_t max)
{
    uint64_t v = 0;
    if (!parseWhole(text, v) || v > max)
        return false;
    out = v;
    return true;
}

bool
parseUintHex(std::string_view text, uint64_t &out)
{
    uint64_t v = 0;
    if (!parseWhole(text, v, 16))
        return false;
    out = v;
    return true;
}

bool
parseReal(std::string_view text, double min, double max, double &out)
{
    double v = 0;
    if (!parseWhole(text, v) || !std::isfinite(v) || v < min || v > max)
        return false;
    out = v;
    return true;
}

Flag
switchFlag(std::string name, bool &out)
{
    return {std::move(name), "", [&out](std::string_view, std::string &) {
                out = true;
                return true;
            }};
}

Flag
textFlag(std::string name, std::string placeholder, std::string &out)
{
    return {std::move(name), std::move(placeholder),
            [&out](std::string_view value, std::string &) {
                out = value;
                return true;
            }};
}

Flag
listFlag(std::string name, std::string placeholder,
         std::vector<std::string> &out)
{
    return {std::move(name), std::move(placeholder),
            [&out](std::string_view value, std::string &) {
                out.emplace_back(value);
                return true;
            }};
}

Flag
realFlag(std::string name, std::string placeholder, double &out,
         double min, double max)
{
    return {std::move(name), std::move(placeholder),
            [&out, min, max](std::string_view value, std::string &) {
                return parseReal(value, min, max, out);
            }};
}

void
printUsage(const char *argv0, const std::vector<Flag> &flags,
           std::string_view operands)
{
    std::fprintf(stderr, "usage: %s", toolName(argv0).c_str());
    for (const Flag &f : flags)
        std::fprintf(stderr, " [--%s%s%s]", f.name.c_str(),
                     f.placeholder.empty() ? "" : "=",
                     f.placeholder.c_str());
    if (!operands.empty())
        std::fprintf(stderr, " %.*s", static_cast<int>(operands.size()),
                     operands.data());
    std::fputc('\n', stderr);
}

bool
parseFlags(int argc, char **argv, const std::vector<Flag> &flags,
           std::vector<std::string> *positional, std::string_view operands)
{
    const auto usage = [&] {
        printUsage(argv[0], flags, operands);
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!arg.starts_with("--")) {
            if (positional == nullptr)
                return usage();
            positional->emplace_back(arg);
            continue;
        }
        const size_t eq = arg.find('=');
        const bool has_value = eq != std::string_view::npos;
        const std::string_view name =
            has_value ? arg.substr(2, eq - 2) : arg.substr(2);
        // A switch takes no "=VALUE"; every other flag needs one.
        const auto flag =
            std::find_if(flags.begin(), flags.end(), [&](const Flag &f) {
                return f.name == name && f.placeholder.empty() != has_value;
            });
        if (flag == flags.end())
            return usage();
        std::string why;
        if (!flag->set(has_value ? arg.substr(eq + 1) : "", why)) {
            std::fprintf(stderr, "%s: bad --%s value%s%s\n",
                         toolName(argv[0]).c_str(), flag->name.c_str(),
                         why.empty() ? "" : ": ", why.c_str());
            return false;
        }
    }
    return true;
}

} // namespace square
