#include "spans.h"

#include <algorithm>
#include <iomanip>

namespace perfbench {

void
SpanRecorder::add(std::string name, double startS, double endS,
                  std::int64_t step, std::int64_t request)
{
    spans_.push_back({std::move(name), startS, endS, step, request});
}

void
SpanRecorder::writeChromeTrace(std::ostream &out) const
{
    double epoch = 0.0;
    if (!spans_.empty())
        epoch = std::min_element(spans_.begin(), spans_.end(),
                                 [](const Span &a, const Span &b) {
                                     return a.startS < b.startS;
                                 })
                    ->startS;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    out << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << (s.startS - epoch) * 1e6
            << ",\"dur\":" << (s.endS - s.startS) * 1e6 << ",\"args\":{";
        const char *sep = "";
        if (s.step != kNone) {
            out << "\"step\":" << s.step;
            sep = ",";
        }
        if (s.request != kNone)
            out << sep << "\"request\":" << s.request;
        out << "}}";
    }
    out << "\n]}\n";
}

} // namespace perfbench
