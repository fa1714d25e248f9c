#include "topology/clos.hpp"

#include <algorithm>
#include <map>

#include "util/logging.hpp"

namespace wss::topology {

LogicalTopology
buildFoldedClos(const ClosSpec &spec)
{
    const int k = spec.ssc.radix;
    if (k < 2 || k % 2 != 0)
        fatal("buildFoldedClos: SSC radix must be even and >= 2, got ", k);
    const int half = k / 2;
    if (spec.total_ports <= 0 || spec.total_ports % half != 0) {
        fatal("buildFoldedClos: total ports (", spec.total_ports,
              ") must be a positive multiple of half the SSC radix (",
              half, ")");
    }
    if (spec.leaf_split < 1 || half % spec.leaf_split != 0) {
        fatal("buildFoldedClos: leaf_split (", spec.leaf_split,
              ") must divide half the SSC radix (", half, ")");
    }

    LogicalTopology topo("clos-" + std::to_string(spec.total_ports),
                         spec.ssc.line_rate);

    // Spine chiplets always use the full-radix SSC.
    const int spine_type = topo.addSscType(spec.ssc);

    // Leaf chiplets: the full SSC, or a disaggregated smaller die.
    int leaf_type = spine_type;
    int leaf_half = half;
    if (spec.leaf_split > 1) {
        leaf_half = half / spec.leaf_split;
        power::SscConfig leaf_ssc = power::scaledSsc(
            k / spec.leaf_split, spec.ssc.line_rate,
            "hetero-leaf-" + std::to_string(k / spec.leaf_split));
        leaf_type = topo.addSscType(leaf_ssc);
    }

    const auto leaves =
        static_cast<int>(spec.total_ports / leaf_half);
    const auto spines =
        static_cast<int>((spec.total_ports + k - 1) / k); // ceil(N/k)

    std::vector<int> leaf_ids(leaves);
    for (int l = 0; l < leaves; ++l)
        leaf_ids[l] = topo.addNode(NodeRole::Leaf, leaf_type, leaf_half);
    std::vector<int> spine_ids(spines);
    for (int s = 0; s < spines; ++s)
        spine_ids[s] = topo.addNode(NodeRole::Spine, spine_type, 0);

    // Spread each leaf's uplinks round-robin over the spines,
    // continuing the rotation across leaves so every spine ends up
    // with the same total (+-1) number of downlinks.
    std::map<std::pair<int, int>, int> bundle;
    int cursor = 0;
    for (int l = 0; l < leaves; ++l) {
        for (int u = 0; u < leaf_half; ++u) {
            const int s = cursor % spines;
            ++bundle[{leaf_ids[l], spine_ids[s]}];
            ++cursor;
        }
    }
    for (const auto &[pair, mult] : bundle)
        topo.addLink(pair.first, pair.second, mult);

    const std::string issue = topo.validate();
    if (!issue.empty())
        panic("buildFoldedClos produced an invalid topology: ", issue);
    return topo;
}

std::int64_t
alignClosPorts(std::int64_t ports, int ssc_radix)
{
    const std::int64_t half = ssc_radix / 2;
    if (half < 1)
        fatal("alignClosPorts: SSC radix must be >= 2, got ", ssc_radix);
    return std::max<std::int64_t>(ports / half, 1) * half;
}

std::int64_t
closChipletCount(std::int64_t total_ports, int ssc_radix)
{
    if (ssc_radix <= 0)
        fatal("closChipletCount: radix must be positive");
    // 2N/k leaves + ceil(N/k) spines; equals 3N/k when k | N.
    return 2 * total_ports / ssc_radix +
           (total_ports + ssc_radix - 1) / ssc_radix;
}

power::SscConfig
deradixedSsc(const power::SscConfig &base, int factor)
{
    if (factor < 1 || base.radix % factor != 0)
        fatal("deradixedSsc: factor (", factor,
              ") must divide the base radix (", base.radix, ")");
    // Same die area - the freed beachfront becomes feedthrough I/O -
    // but only radix/factor ports of switching logic, so core power
    // follows the quadratic radix law. Repeater power for the
    // feedthroughs is accounted as internal I/O power by the mapping
    // layer, not here.
    power::SscConfig ssc = power::scaledSsc(
        base.radix / factor, base.line_rate,
        base.name + "-dr" + std::to_string(base.radix / factor));
    ssc.area = base.area;
    return ssc;
}

} // namespace wss::topology
