/**
 * @file
 * Host readings: process CPU time, peak resident memory, and the
 * noise diagnostics printed beside each run (hypervisor steal time,
 * involuntary context switches). Diagnostics are reported, never
 * gated on: they identify disturbed runs.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <cstdint>

namespace perfbench {

/** Process CPU seconds, all threads (CLOCK_PROCESS_CPUTIME_ID). */
double processCpuSeconds();

/** Peak resident set size of the process so far, in MB (ru_maxrss). */
double peakRssMb();

/** A point-in-time reading of the host-noise counters. */
struct HostSample
{
    /** Machine-wide steal time from /proc/stat (0 when unreadable). */
    double stealS = 0.0;
    /** Involuntary context switches of this process. */
    std::int64_t involuntarySwitches = 0;
    /** Process user + system CPU seconds. */
    double cpuS = 0.0;
};

HostSample sampleHost();

} // namespace perfbench

#endif // PERFBENCH_HOST_H
