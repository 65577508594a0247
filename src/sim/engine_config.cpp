#include "sim/engine_config.h"

#include "arch/area_model.h"
#include "common/logging.h"

namespace figlut {

void
GemmShape::validate() const
{
    if (m == 0 || n == 0 || batch == 0)
        fatal("GEMM shape must be non-empty, got ", m, "x", n, " batch ",
              batch);
    if (weightBits < 1 || weightBits > 8)
        fatal("weight bits must be in [1, 8], got ", weightBits);
    if (groupSize > n)
        fatal("group size ", groupSize, " exceeds reduction dim ", n);
}

bool
HwConfig::bitSerial() const
{
    return engine == EngineKind::IFPU ||
           engine == EngineKind::FIGLUT_F ||
           engine == EngineKind::FIGLUT_I;
}

bool
HwConfig::integerDatapath() const
{
    return engine == EngineKind::IFPU || engine == EngineKind::FIGNA ||
           engine == EngineKind::FIGLUT_I;
}

int
HwConfig::processedWeightBits(int q) const
{
    if (bitSerial())
        return q;
    if (q > fixedWeightBits)
        fatal(engineName(engine), " hardware with ", fixedWeightBits,
              "-bit weight datapath cannot process q=", q, " weights");
    return fixedWeightBits; // sub-width data is padded (Section IV-C)
}

double
HwConfig::peakBinaryLanes() const
{
    const auto geo = engineArray(engine);
    switch (engine) {
      case EngineKind::FPE:
      case EngineKind::FIGNA:
        // One fixed-width MAC per PE per cycle counts as
        // fixedWeightBits binary lanes.
        return static_cast<double>(geo.pes()) * fixedWeightBits;
      case EngineKind::IFPU:
        return static_cast<double>(geo.pes());
      case EngineKind::FIGLUT_F:
      case EngineKind::FIGLUT_I:
        return static_cast<double>(geo.pes()) * k * mu;
    }
    panic("unknown engine kind");
}

std::string
HwConfig::describe() const
{
    return engineName(engine) + "(" + actFormatName(actFormat) + ",Q" +
           std::to_string(fixedWeightBits) + ")";
}

void
InterconnectConfig::validate() const
{
    if (latencyS < 0.0)
        fatal("interconnect latency must be >= 0, got ", latencyS);
    if (bandwidthBytesPerS <= 0.0)
        fatal("interconnect bandwidth must be positive, got ",
              bandwidthBytesPerS);
}

void
HwConfig::validate() const
{
    if (mu < 2 || mu > 8)
        fatal("FIGLUT mu must be in [2, 8], got ", mu);
    if (k < 1 || k > 1024)
        fatal("FIGLUT k must be in [1, 1024], got ", k);
    if (fixedWeightBits != 4 && fixedWeightBits != 8)
        fatal("fixed-precision engines support Q4 or Q8 datapaths, got ",
              fixedWeightBits);
    if (tech.freqMhz <= 0.0)
        fatal("clock frequency must be positive");
    interconnect.validate();
}

} // namespace figlut
