/**
 * @file
 * Shared helpers for the experiment-reproduction binaries.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation: it builds its machines and policy sets here, compiles
 * through compileEach(), and reports through one Figure, which prints
 * the table from the same rows it writes to BENCH_<name>.json.
 */

#ifndef SQUARE_BENCH_BENCH_COMMON_H
#define SQUARE_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "arch/machine.h"
#include "common/flags.h"
#include "core/compiler.h"
#include "core/policy.h"
#include "workloads/registry.h"

namespace square::bench {

/** The three policies of Table I. */
inline std::vector<SquareConfig>
paperPolicies()
{
    return {SquareConfig::lazy(), SquareConfig::eager(),
            SquareConfig::square()};
}

/** The four series of Fig. 8a / 9 / 10 (adds LAA-only). */
inline std::vector<SquareConfig>
figurePolicies()
{
    return {SquareConfig::lazy(), SquareConfig::eager(),
            SquareConfig::squareLaaOnly(), SquareConfig::square()};
}

/** NISQ machine used by the Sec. V-C experiments. */
inline Machine
nisqMachine()
{
    return Machine::nisqLattice(5, 5);
}

/** Boundary-scale machine for one benchmark (Sec. V-D). */
inline Machine
boundaryMachine(const BenchmarkInfo &info)
{
    return Machine::nisqLattice(info.boundaryEdge, info.boundaryEdge);
}

/** FT machine for one benchmark (Sec. V-E). */
inline Machine
ftMachine(const BenchmarkInfo &info)
{
    return Machine::ftBraid(info.boundaryEdge, info.boundaryEdge);
}

/**
 * Compile @p prog under each config, in config order, each on a fresh
 * machine from @p machine.
 */
inline std::vector<CompileResult>
compileEach(const Program &prog, const std::function<Machine()> &machine,
            const std::vector<SquareConfig> &configs)
{
    std::vector<CompileResult> out;
    out.reserve(configs.size());
    for (const SquareConfig &cfg : configs)
        out.push_back(compile(prog, machine(), cfg));
    return out;
}

/** One value of a row or summary: a JSON field and a table cell. */
struct Field
{
    std::string key;
    std::string text;    ///< the value as printed
    bool quoted = false; ///< a JSON string (left-aligned in the table)
};

/** String field. */
inline Field
str(std::string key, std::string value)
{
    return {std::move(key), std::move(value), true};
}

/** Integer field. */
inline Field
num(std::string key, int64_t value)
{
    return {std::move(key), std::to_string(value)};
}

/** Fixed-decimal floating-point field. */
inline Field
fixed(std::string key, double value, int decimals = 3)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return {std::move(key), buf};
}

/**
 * One reproduction's output.  The constructor parses the command line
 * through the tools' flag table (only --square_json=PATH, with a
 * non-empty path; anything else prints the usage line and exits 1)
 * and prints the title.  row() adds one line of the table and one
 * JSON result, summary() a JSON header field printed under the table,
 * note() a line of prose printed after it.  finish()
 * prints everything, writes BENCH_<name>.json when asked and returns
 * the exit status: 1 when the file cannot be written, else 0.
 */
class Figure
{
  public:
    Figure(int argc, char **argv, std::string name, std::string unit,
           const std::string &title, const std::string &paper_ref)
        : name_(std::move(name)), unit_(std::move(unit))
    {
        if (!parseFlags(argc, argv,
                        {{"square_json", "PATH",
                          [this](std::string_view path, std::string &) {
                              jsonPath_ = path;
                              return !path.empty();
                          }}}))
            std::exit(1);
        rule(72);
        std::printf("%s\n(reproduces %s of Ding et al., SQUARE, ISCA "
                    "2020)\n",
                    title.c_str(), paper_ref.c_str());
        rule(72);
    }

    void
    row(std::vector<Field> fields)
    {
        rows_.push_back(std::move(fields));
    }

    void
    summary(Field field)
    {
        summary_.push_back(std::move(field));
    }

    template <typename... Parts>
    void
    note(const Parts &...parts)
    {
        std::ostringstream os;
        (os << ... << parts);
        notes_.push_back(os.str());
    }

    int
    finish() const
    {
        printTable();
        size_t key_width = 0;
        for (const Field &f : summary_)
            key_width = std::max(key_width, f.key.size());
        for (const Field &f : summary_)
            std::printf("%-*s  %s\n", static_cast<int>(key_width),
                        f.key.c_str(), f.text.c_str());
        if (!notes_.empty())
            std::printf("\n");
        for (const std::string &n : notes_)
            std::printf("%s\n", n.c_str());
        std::fflush(stdout);
        return jsonPath_.empty() || writeJson() ? 0 : 1;
    }

  private:
    static void
    rule(size_t width)
    {
        std::printf("%s\n", std::string(width, '-').c_str());
    }

    /**
     * The rows as a table: one column per key in first-seen order,
     * blank where a row lacks the key.
     */
    void
    printTable() const
    {
        struct Column
        {
            std::string key;
            size_t width;
            bool left; ///< strings align left, numbers right
        };
        std::vector<Column> cols;
        for (const std::vector<Field> &r : rows_) {
            for (const Field &f : r) {
                auto c = std::find_if(
                    cols.begin(), cols.end(),
                    [&](const Column &col) { return col.key == f.key; });
                if (c == cols.end())
                    c = cols.insert(c, {f.key, f.key.size(), f.quoted});
                c->width = std::max(c->width, f.text.size());
            }
        }
        size_t total = 0;
        const auto print = [&](const auto &text_of) {
            std::string line;
            for (size_t i = 0; i < cols.size(); ++i) {
                const std::string text = text_of(cols[i].key);
                const std::string pad(cols[i].width - text.size(), ' ');
                line += i ? "  " : "";
                line += cols[i].left ? text + pad : pad + text;
            }
            total = std::max(total, line.size());
            line.erase(line.find_last_not_of(' ') + 1);
            std::printf("%s\n", line.c_str());
        };
        print([](const std::string &key) { return key; });
        rule(total);
        for (const std::vector<Field> &r : rows_) {
            print([&](const std::string &key) {
                for (const Field &f : r) {
                    if (f.key == key)
                        return f.text;
                }
                return std::string();
            });
        }
        rule(total);
    }

    static std::string
    json(const Field &f)
    {
        if (!f.quoted)
            return f.text;
        std::string out = "\"";
        for (char c : f.text) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out + "\"";
    }

    /** BENCH_<name>.json: header fields in order, then the rows. */
    bool
    writeJson() const
    {
        std::FILE *f = std::fopen(jsonPath_.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         jsonPath_.c_str());
            return false;
        }
        std::vector<Field> header = {str("benchmark", name_),
                                     str("unit", unit_)};
        header.insert(header.end(), summary_.begin(), summary_.end());
        std::fprintf(f, "{\n");
        for (const Field &h : header)
            std::fprintf(f, "  \"%s\": %s,\n", h.key.c_str(),
                         json(h).c_str());
        std::fprintf(f, "  \"results\": [\n");
        for (size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(f, "    {");
            for (size_t k = 0; k < rows_[i].size(); ++k)
                std::fprintf(f, "%s\"%s\": %s", k ? ", " : "",
                             rows_[i][k].key.c_str(),
                             json(rows_[i][k]).c_str());
            std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        if (std::fclose(f) != 0) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath_.c_str());
            return false;
        }
        std::fprintf(stderr, "wrote %zu results to %s\n", rows_.size(),
                     jsonPath_.c_str());
        return true;
    }

    std::string name_;
    std::string unit_;
    std::string jsonPath_;
    std::vector<Field> summary_;
    std::vector<std::vector<Field>> rows_;
    std::vector<std::string> notes_;
};

} // namespace square::bench

#endif // SQUARE_BENCH_BENCH_COMMON_H
