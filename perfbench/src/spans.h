/**
 * @file
 * Spans of the traced run, kept in memory and written at the end as
 * Chrome trace-event JSON (chrome://tracing, Perfetto) with no
 * dependency: one complete ("X") event per span, step and request ids
 * in its args.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Ids a span carries; kNone where it has none. */
inline constexpr std::int64_t kNone = -1;

struct Span
{
    std::string name;
    double startS = 0.0;
    double endS = 0.0;
    std::int64_t step = kNone;
    std::int64_t request = kNone;
};

class SpanRecorder
{
  public:
    void add(std::string name, double startS, double endS,
             std::int64_t step = kNone, std::int64_t request = kNone);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as trace-event JSON, times relative to the
     *  earliest span. */
    void writeChromeTrace(std::ostream &out) const;

  private:
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
