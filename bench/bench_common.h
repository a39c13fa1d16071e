/**
 * @file
 * Shared helpers for the experiment-reproduction binaries.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation; these helpers provide consistent machine construction,
 * policy sets, and fixed-width table printing.
 */

#ifndef SQUARE_BENCH_BENCH_COMMON_H
#define SQUARE_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/machine.h"
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

// ---------------------------------------------------------------------
// JSON baseline emission
//
// Every bench binary can write a compact BENCH_*.json with one row per
// measured cell so the reproduced tables and figures are diffable
// across changes.  Fields are pre-rendered key/value cells; rows keep
// insertion order.
// ---------------------------------------------------------------------

/** One pre-rendered key/value cell of a JSON row. */
struct JsonField
{
    std::string key;
    std::string rendered; ///< value as it appears in the file
};

/** String field (escapes quotes and backslashes). */
inline JsonField
jsonStr(const std::string &key, const std::string &value)
{
    std::string out = "\"";
    for (char c : value) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    out.push_back('"');
    return {key, out};
}

/** Integer field. */
inline JsonField
jsonInt(const std::string &key, int64_t value)
{
    return {key, std::to_string(value)};
}

/** Fixed-decimal floating-point field. */
inline JsonField
jsonNum(const std::string &key, double value, int decimals = 3)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return {key, buf};
}

/** An orderly BENCH_*.json document: header fields plus result rows. */
struct JsonReport
{
    std::string benchmark;
    std::string unit;
    /** Extra top-level fields (e.g. host parameters). */
    std::vector<JsonField> header;
    std::vector<std::vector<JsonField>> rows;

    void
    addRow(std::vector<JsonField> fields)
    {
        rows.push_back(std::move(fields));
    }

    /** Write the document; returns false (with a message) on failure. */
    bool
    writeTo(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         path.c_str());
            return false;
        }
        std::fprintf(f, "{\n");
        std::fprintf(f, "  \"benchmark\": \"%s\",\n", benchmark.c_str());
        std::fprintf(f, "  \"unit\": \"%s\",\n", unit.c_str());
        for (const JsonField &h : header)
            std::fprintf(f, "  \"%s\": %s,\n", h.key.c_str(),
                         h.rendered.c_str());
        std::fprintf(f, "  \"results\": [\n");
        for (size_t i = 0; i < rows.size(); ++i) {
            std::fprintf(f, "    {");
            for (size_t k = 0; k < rows[i].size(); ++k) {
                std::fprintf(f, "%s\"%s\": %s", k ? ", " : "",
                             rows[i][k].key.c_str(),
                             rows[i][k].rendered.c_str());
            }
            std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::fprintf(stderr, "wrote %zu results to %s\n", rows.size(),
                     path.c_str());
        return true;
    }
};

/**
 * Extract a --square_json=PATH argument from argv (removing it so the
 * remaining arguments can go to other parsers).  Returns the path, or
 * "" when absent.
 */
inline std::string
extractJsonPath(int &argc, char **argv)
{
    constexpr const char *kFlag = "--square_json=";
    std::string path;
    int out = 0;
    for (int i = 0; i < argc; ++i) {
        if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0)
            path = argv[i] + std::strlen(kFlag);
        else
            argv[out++] = argv[i];
    }
    argc = out;
    return path;
}

/** Print a horizontal rule sized for @p width columns. */
inline void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Print the standard bench header. */
inline void
printHeader(const std::string &title, const std::string &paper_ref)
{
    printRule(72);
    std::printf("%s\n(reproduces %s of Ding et al., SQUARE, ISCA 2020)\n",
                title.c_str(), paper_ref.c_str());
    printRule(72);
}

} // namespace square::bench

#endif // SQUARE_BENCH_BENCH_COMMON_H
