/**
 * @file
 * hostbench — host-time benchmark of the wss flow, collective, fabric
 * and solver layers.
 *
 * Usage: hostbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--profiles DIR]
 * Normally started through hostbench/run.py, which builds it first.
 */

#include <algorithm>
#include <string>

#include "harness.hpp"
#include "util/logging.hpp"
#include "util/parse.hpp"

namespace {

/// A seed is 1 to 18 decimal digits (0 allowed).
bool
isSeed(const std::string &value)
{
    return !value.empty() && value.size() <= 18 &&
           std::all_of(value.begin(), value.end(),
                       [](char c) { return c >= '0' && c <= '9'; });
}

} // namespace

int
main(int argc, char **argv)
{
    hostbench::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            wss::fatal("hostbench: ", flag, " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed" && isSeed(value))
            options.seed = std::stoull(value);
        else if (flag == "--seconds")
            options.seconds = static_cast<double>(
                wss::util::parsePositiveInt(value, "--seconds"));
        else if (flag == "--trace" && (value == "0" || value == "1"))
            options.trace = value == "1";
        else if (flag == "--profiles")
            options.profiles = value;
        else
            wss::fatal("hostbench: bad argument ", flag, " ", value,
                       " (--workload NAME --seed N --seconds S "
                       "--trace 0|1 [--profiles DIR])");
    }
    if (options.workload.empty())
        wss::fatal("hostbench: --workload is required");
    return hostbench::runBenchmark(options);
}
