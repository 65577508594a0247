#include "host.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/** Steal ticks of the aggregate "cpu" line, in seconds. */
double
readStealSeconds()
{
    std::ifstream stat("/proc/stat");
    std::string line;
    if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0)
        return 0.0;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal
    long long value = 0;
    for (int i = 0; i < 8; ++i)
        if (!(fields >> value))
            return 0.0;
    const long ticks = sysconf(_SC_CLK_TCK);
    return ticks > 0 ? static_cast<double>(value) / static_cast<double>(ticks)
                     : 0.0;
}

double
toSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

} // namespace

HostSample
sampleHost()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    HostSample sample;
    sample.stealS = readStealSeconds();
    sample.involuntarySwitches = usage.ru_nivcsw;
    sample.cpuS = toSeconds(usage.ru_utime) + toSeconds(usage.ru_stime);
    return sample;
}

} // namespace perfbench
