#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

void
SpanLog::append(SpanLog &&other)
{
    const int64_t base = static_cast<int64_t>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent != kNone)
            s.parent += base;
        spans_.push_back(s);
    }
    other.spans_.clear();
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    // Child intervals per parent, clipped to the parent's interval.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0 || s.parent >= static_cast<int64_t>(spans.size()))
            continue;
        const Span &p = spans[static_cast<size_t>(s.parent)];
        int64_t lo = std::max(s.startNs, p.startNs);
        int64_t hi = std::min(s.endNs, p.endNs);
        if (hi > lo)
            covered[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
    }
    std::vector<int64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        auto &iv = covered[i];
        std::sort(iv.begin(), iv.end());
        int64_t union_ns = 0;
        int64_t cur_lo = 0;
        int64_t cur_hi = 0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                union_ns += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            union_ns += cur_hi - cur_lo;
        int64_t dur = spans[i].endNs - spans[i].startNs;
        self[i] = std::max<int64_t>(dur - union_ns, 0);
    }
    return self;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::vector<int64_t> self = selfTimesNs(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"i\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                     "\"end_ns\": %lld, \"parent\": %lld, \"request\": "
                     "%llu, \"self_ns\": %lld}\n",
                     i, s.name, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
