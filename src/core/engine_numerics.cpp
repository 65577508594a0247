#include "core/engine_numerics.h"

#include <cmath>

#include "common/logging.h"

namespace figlut {

std::string
engineName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::FPE: return "FPE";
      case EngineKind::IFPU: return "iFPU";
      case EngineKind::FIGNA: return "FIGNA";
      case EngineKind::FIGLUT_F: return "FIGLUT-F";
      case EngineKind::FIGLUT_I: return "FIGLUT-I";
    }
    panic("unknown EngineKind value ", static_cast<int>(kind));
}

MatrixD
oracleGemm(const MatrixD &weights, const MatrixD &x)
{
    FIGLUT_ASSERT(weights.cols() == x.rows(), "oracle shape mismatch");
    MatrixD y(weights.rows(), x.cols(), 0.0);
    for (std::size_t r = 0; r < weights.rows(); ++r)
        for (std::size_t b = 0; b < x.cols(); ++b) {
            double acc = 0.0;
            for (std::size_t c = 0; c < weights.cols(); ++c)
                acc += weights(r, c) * x(c, b);
            y(r, b) = acc;
        }
    return y;
}

MatrixD
fpReferenceGemm(const MatrixD &dequant_weights, const MatrixD &x,
                const NumericsConfig &config)
{
    FIGLUT_ASSERT(dequant_weights.cols() == x.rows(),
                  "reference GEMM shape mismatch");
    const std::size_t m = dequant_weights.rows();
    const std::size_t n = dequant_weights.cols();
    const std::size_t batch = x.cols();

    MatrixD y(m, batch, 0.0);
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t r = 0; r < m; ++r) {
            double acc = 0.0;
            for (std::size_t c = 0; c < n; ++c) {
                // Weights live in the activation format after
                // dequantization (this is what FP-FP GPU kernels do).
                const double w = quantizeToFormat(
                    dequant_weights(r, c), config.actFormat);
                const double a = quantizeToFormat(
                    x(c, b), config.actFormat);
                // Product exact in double; one rounding into the
                // accumulate precision models the FMA datapath.
                acc = fpAdd(acc, fpRound(w * a, config.accum),
                            config.accum);
            }
            y(r, b) = acc;
        }
    }
    return y;
}

MatrixD
ifpuGemm(const BcqTensor &weights, const MatrixD &x,
         const NumericsConfig &config)
{
    FIGLUT_ASSERT(weights.cols == x.rows(), "iFPU shape mismatch");
    const std::size_t m = weights.rows;
    const std::size_t n = weights.cols;
    const std::size_t batch = x.cols();
    const std::size_t groups = weights.groupsPerRow();

    MatrixD y(m, batch, 0.0);
    for (std::size_t b = 0; b < batch; ++b) {
        std::vector<double> xb(n);
        for (std::size_t c = 0; c < n; ++c)
            xb[c] = quantizeToFormat(x(c, b), config.actFormat);

        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t c0 = g * weights.groupSize;
            const std::size_t c1 = std::min(n, c0 + weights.groupSize);

            std::vector<double> group_vals(xb.begin() + c0,
                                           xb.begin() + c1);
            const AlignedBlock block = preAlign(
                group_vals, config.actFormat, config.alignFracBits);
            const double scale = block.scale();

            int64_t sum_mant = 0;
            if (weights.hasOffset) {
                for (const auto mv : block.mantissas)
                    sum_mant += mv;
            }

            for (std::size_t r = 0; r < m; ++r) {
                double row_acc = 0.0;
                for (int i = 0; i < weights.bits; ++i) {
                    // Bit-serial signed add/subtract of mantissas.
                    int64_t psum = 0;
                    for (std::size_t c = c0; c < c1; ++c) {
                        const int64_t mv = block.mantissas[c - c0];
                        psum += weights.planes[
                                    static_cast<std::size_t>(i)](r, c)
                                    ? mv : -mv;
                    }
                    const double alpha =
                        weights.alphas[static_cast<std::size_t>(i)](r, g);
                    row_acc = fpAdd(
                        row_acc,
                        fpRound(alpha *
                                    (static_cast<double>(psum) * scale),
                                config.accum),
                        config.accum);
                }
                if (weights.hasOffset) {
                    const double sumx =
                        static_cast<double>(sum_mant) * scale;
                    row_acc = fpAdd(
                        row_acc,
                        fpRound(weights.offsets(r, g) * sumx,
                                config.accum),
                        config.accum);
                }
                y(r, b) = fpAdd(y(r, b), row_acc, config.accum);
            }
        }
    }
    return y;
}

MatrixD
fignaGemm(const RtnTensor &weights, const MatrixD &x,
          const NumericsConfig &config)
{
    FIGLUT_ASSERT(weights.cols == x.rows(), "FIGNA shape mismatch");
    const std::size_t m = weights.rows;
    const std::size_t n = weights.cols;
    const std::size_t batch = x.cols();
    const std::size_t groups = weights.groupsPerRow();

    MatrixD y(m, batch, 0.0);
    for (std::size_t b = 0; b < batch; ++b) {
        std::vector<double> xb(n);
        for (std::size_t c = 0; c < n; ++c)
            xb[c] = quantizeToFormat(x(c, b), config.actFormat);

        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t c0 = g * weights.groupSize;
            const std::size_t c1 = std::min(n, c0 + weights.groupSize);

            std::vector<double> group_vals(xb.begin() + c0,
                                           xb.begin() + c1);
            const AlignedBlock block = preAlign(
                group_vals, config.actFormat, config.alignFracBits);
            const double scale = block.scale();

            for (std::size_t r = 0; r < m; ++r) {
                // Integer multiply between aligned mantissas and
                // zero-centred codes, exact integer accumulation.
                __int128 acc = 0;
                const int32_t zp = weights.zeroPoints(r, g);
                for (std::size_t c = c0; c < c1; ++c) {
                    const int32_t code = weights.codes(r, c);
                    acc += static_cast<__int128>(
                               block.mantissas[c - c0]) *
                           (code - zp);
                }
                const double partial = fpRound(
                    weights.scales(r, g) *
                        (static_cast<double>(acc) * scale),
                    config.accum);
                y(r, b) = fpAdd(y(r, b), partial, config.accum);
            }
        }
    }
    return y;
}

MatrixD
figlutGemm(const BcqTensor &weights, const MatrixD &x,
           const NumericsConfig &config, bool pre_aligned,
           LutGemmCounters *counters)
{
    LutGemmConfig cfg;
    cfg.mu = config.mu;
    cfg.actFormat = config.actFormat;
    cfg.arith = config.accum;
    cfg.preAligned = pre_aligned;
    cfg.alignFracBits = config.alignFracBits;
    return lutGemm(weights, x, cfg, counters);
}

double
ErrorReport::nrmse() const
{
    return refRms > 0.0 ? std::sqrt(mse) / refRms : std::sqrt(mse);
}

ErrorReport
compareMatrices(const MatrixD &test, const MatrixD &ref)
{
    FIGLUT_ASSERT(test.rows() == ref.rows() && test.cols() == ref.cols(),
                  "compareMatrices shape mismatch");
    ErrorReport report;
    double sq = 0.0;
    double ref_sq = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const double t = test.at(i);
        const double r = ref.at(i);
        const double d = std::fabs(t - r);
        report.maxAbs = std::max(report.maxAbs, d);
        sq += d * d;
        ref_sq += r * r;
        const double denom = std::max(std::fabs(r), 1e-30);
        report.maxRel = std::max(report.maxRel, d / denom);
        if (d != 0.0)
            report.identical = false;
    }
    const auto count = static_cast<double>(ref.size());
    report.mse = count > 0 ? sq / count : 0.0;
    report.refRms = count > 0 ? std::sqrt(ref_sq / count) : 0.0;
    return report;
}

} // namespace figlut
