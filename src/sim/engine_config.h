/**
 * @file
 * Hardware and workload configuration for the cycle-level simulator.
 *
 * All engines are configured at the paper's common design point: equal
 * peak Q4 throughput (16384 binary lanes / 4096 Q4 MACs per cycle),
 * 100 MHz, 28 nm (Section IV-B "Configuration Setup").
 */

#ifndef FIGLUT_SIM_ENGINE_CONFIG_H
#define FIGLUT_SIM_ENGINE_CONFIG_H

#include <cstdint>
#include <string>

#include "arch/lut_power.h"
#include "arch/tech_params.h"
#include "core/engine_numerics.h"
#include "numerics/fp_format.h"

namespace figlut {

/** One GEMM workload: Y(M x B) = W(M x N) * X(N x B). */
struct GemmShape
{
    std::size_t m = 0;        ///< output features
    std::size_t n = 0;        ///< input features (reduction dim)
    std::size_t batch = 1;    ///< input columns
    int weightBits = 4;       ///< quantized width q
    std::size_t groupSize = 0;///< scale group (0 = full row)
    bool hasOffset = true;    ///< BCQ offset / uniform zero point

    double macs() const
    {
        return static_cast<double>(m) * static_cast<double>(n) *
               static_cast<double>(batch);
    }

    /** Nominal GEMM operations (2 per MAC), the paper's TOPS basis. */
    double ops() const { return 2.0 * macs(); }

    /** Validate invariants; throws FatalError on bad input. */
    void validate() const;
};

/**
 * Interconnect cost model for sharded execution, in the spirit of
 * HPCC's b_eff effective-bandwidth methodology: one combine (the
 * activation broadcast to remote worker groups + the gather of their
 * output rows) costs latencyS + bytes / bandwidthBytesPerS. Both
 * parameters are calibrated from measurement — bench_stream's
 * cross-pool transfer reports them directly (xpool_latency_s /
 * xpool_bw_bytes_per_s; see BUILDING.md "Comm-model calibration") —
 * and the defaults below carry the dev-host calibration so simulated
 * shard sweeps are honest out of the box.
 */
struct InterconnectConfig
{
    /** Per-combine fixed cost: cross-group handshake + wakeup.
     *  Default = the best mutex/condvar handoff half round trip
     *  bench_stream's xpool probe measured on the reference host. */
    double latencyS = 1.0e-6;
    /** Effective cross-group bandwidth for combine traffic. Default =
     *  the xpool cross-pool copy rate on the reference host. */
    double bandwidthBytesPerS = 2.0e10;

    /** Validate invariants; throws FatalError on bad input. */
    void validate() const;
};

/** Engine hardware configuration. */
struct HwConfig
{
    EngineKind engine = EngineKind::FIGLUT_I;
    ActFormat actFormat = ActFormat::FP16;
    int mu = 4;               ///< FIGLUT LUT group size
    int k = 32;               ///< FIGLUT RACs per LUT
    /**
     * LUT implementation for the FIGLUT engines. hFFLUT is the
     * paper's design; FFLUT and RFLUT are the ablation points
     * (Sections III-C/III-D).
     */
    LutImpl lutImpl = LutImpl::HFFLUT;
    /**
     * Physical weight width of the fixed-precision engines. FPE and
     * FIGNA instantiated for Q4 must pad narrower weights to 4 bits;
     * the Q8 variants are separate (wider) hardware (Section IV-B).
     */
    int fixedWeightBits = 4;
    TechParams tech = TechParams::default28nm();
    /** Combine pricing for sharded GEMM tasks (shards > 1). */
    InterconnectConfig interconnect;

    /** True for the bit-serial engines (iFPU, FIGLUT). */
    bool bitSerial() const;

    /** Whether this engine runs on the pre-aligned integer datapath. */
    bool integerDatapath() const;

    /**
     * The weight width the hardware actually processes for a q-bit
     * workload: q for bit-serial engines, padded fixedWeightBits for
     * the fixed-precision ones.
     */
    int processedWeightBits(int q) const;

    /** Peak binary-lane MACs per cycle (16384 at the design point). */
    double peakBinaryLanes() const;

    /** Display name like "FIGLUT-I(FP16)". */
    std::string describe() const;

    /** Validate invariants; throws FatalError on bad input. */
    void validate() const;
};

} // namespace figlut

#endif // FIGLUT_SIM_ENGINE_CONFIG_H
