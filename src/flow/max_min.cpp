#include "flow/max_min.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/logging.hpp"

namespace wss::flow {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Entry = MaxMinScratch::Entry;
using Heap = std::vector<Entry>;

/// Strict (share, pos) order. Bitwise rather than short-circuit: it
/// picks the heap child to follow, a coin flip a branch would
/// mispredict half the time.
bool
before(const Entry &a, const Entry &b)
{
    return (a.share < b.share) | ((a.share == b.share) & (a.pos < b.pos));
}

/// Move h[i] down to its place in the binary min-heap.
void
siftDown(Heap &h, std::size_t i)
{
    const Entry e = h[i];
    const std::size_t n = h.size();
    for (std::size_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n)
            c += before(h[c + 1], h[c]);
        if (!before(h[c], e))
            break;
        h[i] = h[c];
        i = c;
    }
    h[i] = e;
}

/// Append @p e and move it up to its place.
void
push(Heap &h, Entry e)
{
    std::size_t i = h.size();
    h.push_back(e);
    for (; i > 0 && before(e, h[(i - 1) / 2]); i = (i - 1) / 2)
        h[i] = h[(i - 1) / 2];
    h[i] = e;
}

} // namespace

void
maxMinRates(std::span<const double> cap,
            std::span<const std::span<const int>> flow_res,
            std::span<double> rates, MaxMinScratch &s)
{
    if (rates.size() < flow_res.size())
        panic("maxMinRates: ", rates.size(), " rate slots for ",
              flow_res.size(), " flows");
    const std::size_t n_res = cap.size();
    if (s.users.size() < n_res) {
        s.users.resize(n_res);
        s.remcap.resize(n_res);
        s.cnt.resize(n_res);
        s.key.resize(n_res);
        s.pos.resize(n_res);
    }
    const int n = static_cast<int>(flow_res.size());
    for (int f = 0; f < n; ++f)
        for (int r : flow_res[static_cast<std::size_t>(f)]) {
            auto &list = s.users[static_cast<std::size_t>(r)];
            if (list.empty())
                s.touched.push_back(r);
            list.push_back(f);
        }
    s.frozen.assign(static_cast<std::size_t>(n), 0);

    // The heap holds (share, pos) lower bounds. As flows freeze at
    // the smallest share, every other share remcap/cnt can only rise
    // (up to rounding), so a stored key never overstates a share: a
    // front entry whose share has since risen is re-keyed, and the
    // first front entry whose share is still current is the true
    // minimum. key[r] is r's newest entry; older ones, and those of
    // resources with no unfrozen flow left, are dropped when they
    // surface. pos[r] is r's index in touched, the tie-breaker.
    s.heap.clear();
    for (std::size_t pos = 0; pos < s.touched.size(); ++pos) {
        const auto r = static_cast<std::size_t>(s.touched[pos]);
        s.pos[r] = static_cast<int>(pos);
        s.remcap[r] = cap[r];
        s.cnt[r] = static_cast<int>(s.users[r].size());
        s.key[r] = s.remcap[r] / s.cnt[r];
        // A linear scan never picks a NaN or infinite share either.
        if (s.key[r] < kInf)
            s.heap.push_back({s.key[r], static_cast<int>(pos)});
    }
    for (std::size_t i = s.heap.size() / 2; i-- > 0;)
        siftDown(s.heap, i);

    int unfrozen = n;
    while (unfrozen > 0) {
        int bottleneck = -1;
        double best = kInf;
        while (!s.heap.empty()) {
            const Entry top = s.heap.front();
            const int r = s.touched[static_cast<std::size_t>(top.pos)];
            const auto ru = static_cast<std::size_t>(r);
            const bool live = s.cnt[ru] != 0 && top.share == s.key[ru];
            const double share = live ? s.remcap[ru] / s.cnt[ru] : 0.0;
            if (live && share != top.share) {
                // Stale: re-key in place and let it sink.
                s.key[ru] = share;
                s.heap.front().share = share;
                siftDown(s.heap, 0);
                continue;
            }
            s.heap.front() = s.heap.back();
            s.heap.pop_back();
            if (!s.heap.empty())
                siftDown(s.heap, 0);
            if (live) {
                bottleneck = r;
                best = share;
                break;
            }
        }
        if (bottleneck < 0)
            panic("flow waterfill: ", unfrozen,
                  " unfrozen flows but no loaded resource");
        best = std::max(best, 0.0);
        for (int f : s.users[static_cast<std::size_t>(bottleneck)]) {
            if (s.frozen[static_cast<std::size_t>(f)])
                continue;
            s.frozen[static_cast<std::size_t>(f)] = 1;
            rates[static_cast<std::size_t>(f)] = best;
            --unfrozen;
            for (int r : flow_res[static_cast<std::size_t>(f)]) {
                if (r == bottleneck)
                    continue;
                const auto ru = static_cast<std::size_t>(r);
                s.remcap[ru] -= best;
                if (--s.cnt[ru] == 0)
                    continue;
                // In an exact tie the deduction can round the share
                // one ulp *below* its key; re-key it now so the key
                // stays a lower bound.
                const double share = s.remcap[ru] / s.cnt[ru];
                if (share < s.key[ru]) {
                    s.key[ru] = share;
                    push(s.heap, {share, s.pos[ru]});
                }
            }
        }
        s.cnt[static_cast<std::size_t>(bottleneck)] = 0;
    }
    for (int r : s.touched) {
        s.users[static_cast<std::size_t>(r)].clear();
        s.cnt[static_cast<std::size_t>(r)] = 0;
    }
    s.touched.clear();
}

} // namespace wss::flow
