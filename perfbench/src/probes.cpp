#include "probes.h"

#include <algorithm>

#include "model/synthetic.h"

namespace perfbench {

using figlut::LayerOp;
using figlut::MatrixD;

namespace {

double
gemmBytes(const figlut::BcqTensor &w, const figlut::PackedLutKeys &keys,
          std::size_t width)
{
    const double scales = static_cast<double>(
        (static_cast<std::size_t>(w.bits) + 1) * w.rows * w.groupsPerRow());
    return static_cast<double>(keys.keyBytes()) + 8.0 * scales +
           8.0 * static_cast<double>((w.cols + w.rows) * width);
}

} // namespace

LayerProbes::LayerProbes(const figlut::serve::Engine &engine,
                         const figlut::serve::EngineClock &clock, int threads)
    : engine_(engine), clock_(clock), ctx_(threads),
      config_(figlut::makeGemmConfig(engine.options().exec,
                                     engine.options().model.mu)),
      rng_(0x5eed)
{
}

void
LayerProbes::growKv(std::size_t tokens)
{
    const std::size_t h = engine_.model().config().hidden;
    if (refs_.size() >= tokens)
        return;
    kvK_.resize(tokens * h);
    kvV_.resize(tokens * h);
    for (std::size_t i = 0; i < kvK_.size(); ++i) {
        kvK_[i] = rng_.normal();
        kvV_[i] = rng_.normal();
    }
    refs_.resize(tokens);
    for (std::size_t t = 0; t < tokens; ++t)
        refs_[t] = {kvK_.data() + t * h, kvV_.data() + t * h, 1};
}

ProbeSample
LayerProbes::run(const figlut::serve::StepStats &stats, SpanRecorder &spans,
                 std::int64_t step)
{
    ProbeSample sample;
    const figlut::QuantizedModel &model = engine_.model();
    const figlut::OptConfig &cfg = model.config();
    const std::size_t width = stats.columnContexts.size();
    if (width == 0)
        return sample;

    // Inputs are drawn outside the timed regions.
    const MatrixD xh = figlut::syntheticActivations(cfg.hidden, width, rng_);
    const MatrixD xf = figlut::syntheticActivations(cfg.ffn, width, rng_);
    std::size_t longest = 0;
    for (const std::size_t c : stats.columnContexts)
        longest = std::max(longest, c);
    growKv(longest);

    const struct
    {
        LayerOp op;
        const char *span;
    } ops[] = {{LayerOp::QkvProj, "gemm.qkv"},
               {LayerOp::OutProj, "gemm.out_proj"},
               {LayerOp::Fc1, "gemm.fc1"},
               {LayerOp::Fc2, "gemm.fc2"}};
    std::vector<std::vector<figlut::KvTokenRef>> views(width);
    for (std::size_t l = 0; l < model.layers(); ++l) {
        const figlut::QuantizedLayer &layer = model.layer(l);
        for (const auto &[op, span] : ops) {
            const figlut::BcqTensor &w = layer.weights(op);
            const MatrixD &x = w.cols == cfg.hidden ? xh : xf;
            const double t0 = clock_.now();
            const MatrixD y = figlut::lutGemm(w, x, config_, layer.keys(op),
                                              &sample.counters, &ctx_);
            const double t1 = clock_.now();
            sample.gemmS += t1 - t0;
            sample.gemmBytes += gemmBytes(w, layer.keys(op), width);
            spans.add(span, t0, t1, step);
        }
        const double t0 = clock_.now();
        for (std::size_t c = 0; c < width; ++c)
            views[c].assign(refs_.begin(),
                            refs_.begin() + static_cast<std::ptrdiff_t>(
                                                stats.columnContexts[c]));
        const MatrixD attn =
            figlut::referenceDecodeAttention(xh, views, cfg.heads);
        const double t1 = clock_.now();
        sample.attnS += t1 - t0;
        spans.add("attention", t0, t1, step);
    }
    return sample;
}

} // namespace perfbench
