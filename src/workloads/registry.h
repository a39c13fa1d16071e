/**
 * @file
 * Named benchmark registry (Table II).
 *
 * Maps the paper's benchmark names to program builders plus the machine
 * scale each was evaluated on: the first seven are NISQ-sized (compiled
 * to a 5x5 lattice, <= 25 physical qubits), the rest are medium/large
 * programs for the NISQ-FT boundary and FT experiments.
 */

#ifndef SQUARE_WORKLOADS_REGISTRY_H
#define SQUARE_WORKLOADS_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "ir/module.h"

namespace square {

/** One registered benchmark. */
struct BenchmarkInfo
{
    std::string name;
    std::string description;
    /** True for the small instances of the Sec. V-C NISQ experiments. */
    bool nisqScale = false;
    /** Lattice edge for boundary/FT machines (sites = edge^2). */
    int boundaryEdge = 16;
    std::function<Program()> build;
};

/** All benchmarks of Table II, in the paper's order. */
const std::vector<BenchmarkInfo> &benchmarkRegistry();

/** Lookup by name (fatal on unknown name). */
const BenchmarkInfo &findBenchmark(const std::string &name);

/** Build a benchmark program by name (fatal on unknown name). */
Program makeBenchmark(const std::string &name);

} // namespace square

#endif // SQUARE_WORKLOADS_REGISTRY_H
