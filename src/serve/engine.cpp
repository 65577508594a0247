#include "serve/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "model/synthetic.h"
#include "runtime/reference_ops.h"
#include "shard/numa.h"
#include "shard/shard_plan.h"
#include "shard/sharded_executor.h"

namespace figlut {
namespace serve {

namespace {

/** Only the Simd backend consumes pre-packed keys; skip the
 *  materialization (roughly q bytes per weight) for Reference. */
ModelOptions
modelOptionsFor(const EngineOptions &options)
{
    ModelOptions model = options.model;
    model.packKeys = options.exec.backend == LutGemmBackend::Simd;
    return model;
}

/**
 * One fused-batch column's exact share of a step's kernel counters.
 * Every closed form (core/lut_gemm.cpp) is linear in the batch columns
 * with no cross-column or per-call constant term, so the totals divide
 * evenly; a remainder would mean the accounting gained a cross-column
 * term and per-request attribution is no longer exact. A request's
 * share is this times the columns it contributed (one decode column,
 * or its prefill chunk) — equal-per-request splits would misbill
 * mixed prefill/decode steps.
 */
LutGemmCounters
perColumnShare(const LutGemmCounters &total, std::size_t columns)
{
    auto split = [columns](uint64_t v) {
        FIGLUT_ASSERT(v % columns == 0,
                      "fused-step counter ", v,
                      " not divisible by live batch ", columns);
        return v / columns;
    };
    LutGemmCounters share;
    share.lutGenerations = split(total.lutGenerations);
    share.generatorAdds = split(total.generatorAdds);
    share.lutReads = split(total.lutReads);
    share.racAccumulates = split(total.racAccumulates);
    share.scaleMuls = split(total.scaleMuls);
    share.offsetOps = split(total.offsetOps);
    return share;
}

LutGemmCounters
scaleCounters(const LutGemmCounters &share, std::size_t columns)
{
    LutGemmCounters scaled;
    scaled.lutGenerations = share.lutGenerations * columns;
    scaled.generatorAdds = share.generatorAdds * columns;
    scaled.lutReads = share.lutReads * columns;
    scaled.racAccumulates = share.racAccumulates * columns;
    scaled.scaleMuls = share.scaleMuls * columns;
    scaled.offsetOps = share.offsetOps * columns;
    return scaled;
}

Status
validateEngineConfig(const OptConfig &model, const EngineOptions &options)
{
    if (model.hidden == 0 || model.layers == 0 || model.ffn == 0)
        return Status::invalidArgument(
            "Engine needs a non-empty OptConfig, got hidden=",
            model.hidden, " layers=", model.layers, " ffn=", model.ffn);
    if (model.heads == 0 || model.hidden % model.heads != 0)
        return Status::invalidArgument(
            "Engine needs hidden divisible by heads, got ", model.hidden,
            " / ", model.heads);
    if (options.model.weightBits < 1)
        return Status::invalidArgument(
            "Engine weightBits must be >= 1, got ",
            options.model.weightBits);
    if (options.maxBatch == 0)
        return Status::invalidArgument(
            "Engine maxBatch must be positive: a batch of 0 can never ",
            "decode a request");
    if (options.kvBlockTokens == 0)
        return Status::invalidArgument(
            "Engine kvBlockTokens must be >= 1: the KV arena cannot ",
            "page with empty blocks");
    if (options.kvBudgetBytes > 0) {
        // One decode step needs at least one block on every layer the
        // model materializes (maxLayers truncates the source config).
        const std::size_t layers =
            options.model.maxLayers > 0
                ? std::min(options.model.maxLayers, model.layers)
                : model.layers;
        const std::size_t blockBytes =
            options.kvBlockTokens * 2 * model.hidden * sizeof(double);
        const std::size_t floor = blockBytes * layers;
        if (options.kvBudgetBytes < floor)
            return Status::invalidArgument(
                "Engine kvBudgetBytes ", options.kvBudgetBytes,
                " cannot hold one block per layer (", layers,
                " layers x ", blockBytes, "-byte blocks = ", floor,
                " bytes); raise the budget or shrink kvBlockTokens");
    }
    // The widest GEMM input is FC2's ffn columns; a scale group spans
    // at most groupSize of them (0 = the whole row).
    const std::size_t widest = std::max(model.hidden, model.ffn);
    const std::size_t groupColumns =
        options.model.groupSize == 0
            ? widest
            : std::min(options.model.groupSize, widest);
    return validateExecOptions(options.exec, options.model.mu, groupColumns);
}

KvArena::Options
arenaOptionsFor(const OptConfig &model, const EngineOptions &options)
{
    KvArena::Options arena;
    arena.hidden = model.hidden;
    arena.layers = model.layers;
    arena.blockTokens = options.kvBlockTokens;
    arena.budgetBytes = options.kvBudgetBytes;
    return arena;
}

SchedulerOptions
schedulerOptionsFor(const EngineOptions &options)
{
    SchedulerOptions sched;
    sched.maxBatch = options.maxBatch;
    sched.maxQueue = options.maxQueue;
    sched.prefillChunkTokens = options.prefillChunkTokens;
    sched.policy = options.policy;
    return sched;
}

} // namespace

Result<std::unique_ptr<Engine>>
Engine::create(const OptConfig &model, const EngineOptions &options)
{
    if (Status s = validateEngineConfig(model, options); !s.ok())
        return s;
    return std::unique_ptr<Engine>(new Engine(model, options));
}

Engine::Engine(const OptConfig &model, const EngineOptions &options)
    : model_(model, modelOptionsFor(options)), options_(options),
      ctx_(options.exec.threads),
      clock_(options.clock != nullptr ? options.clock : &ownedClock_),
      arena_(arenaOptionsFor(model_.config(), options), options.faults),
      sched_(arena_, schedulerOptionsFor(options), options.faults)
{
    options_.model.packKeys = model_.options().packKeys;
    // Resolve the shard count once (explicit knob, else FIGLUT_SHARDS,
    // else 1) and normalize it back into the stored options so every
    // downstream consumer — workloadTasks(), simulate(), callers
    // reading options() — sees the resolved value. shards == 1 keeps
    // the unsharded path byte-for-byte: no plan, no extra threads.
    shards_ = resolveShardCount(options_.exec.shards);
    options_.exec.shards = shards_;
    if (shards_ > 1) {
        shardPlan_ = std::make_unique<ShardPlan>(model_, shards_);
        shardExec_ = std::make_unique<ShardedExecutor>(
            *shardPlan_, options_.exec.threads,
            shardCpuSets(detectNumaTopology(), shards_));
    }
    // Only the semantic op order is needed to drive the numeric step;
    // the analytic view is rebuilt per call because the live batch and
    // its context lengths change between steps.
    WorkloadOptions opOrder;
    opOrder.batch = 1;
    opOrder.contextLen = 1;
    for (const auto &spec : layerSpecs(model_.config(), opOrder))
        layerOps_.push_back(spec.op);
}

Engine::~Engine() = default;

Status
Engine::checkLive(RequestId id) const
{
    const ScheduleEntry *entry = sched_.find(id);
    if (entry == nullptr)
        return Status::notFound("unknown request id ", id);
    if (requestStateTerminal(entry->state))
        return Status::failedPrecondition(
            "request ", id, " already retired (",
            requestStateName(entry->state), ")");
    return Status::okStatus();
}

Result<RequestId>
Engine::submit(const RequestOptions &request)
{
    if (request.deadlineS < 0.0)
        return Status::invalidArgument(
            "request deadlineS must be >= 0, got ", request.deadlineS);
    // The submit time is both the deadline/queue-wait base and the
    // admission stamp.
    const double nowS = clock_->now();
    Result<RequestId> id = sched_.submit(request, nowS, nowS);
    if (!id.ok())
        return id;
    // The initial hidden state comes first in the request's RNG
    // stream; the prompt embeddings follow, but are materialized
    // lazily at the request's first work step (see prepareLife) so
    // queued traffic holds no prompt or KV bytes.
    Request req;
    Rng rng(request.seed);
    req.hidden = syntheticActivations(model_.config().hidden, 1, rng);
    requests_.push_back(std::move(req));
    return id;
}

void
Engine::retireSequence(RequestId id)
{
    const KvArena::SeqId seq = sched_.find(id)->seq;
    if (seq != KvArena::kInvalidSeq && options_.retainFinishedKv)
        requests_[id - 1].retainedKv = arena_.materialize(seq);
    sched_.releaseSequence(id);
}

void
Engine::prepareLife(Request &req, const ScheduleEntry &entry)
{
    if (req.lifeReady)
        return;
    const std::size_t h = model_.config().hidden;
    // Replay the submit-time RNG stream: hidden state first, then the
    // prompt embeddings. On a preemption restart the redrawn hidden
    // replaces the evicted life's progress (the from-scratch
    // recompute); on a first admission it equals the submit-time draw.
    Rng rng(entry.request.seed);
    req.hidden = syntheticActivations(h, 1, rng);
    const std::size_t prompt = entry.remainingPrompt();
    if (prompt > 0)
        req.promptEmbeds = syntheticActivations(h, prompt, rng);
    req.lifeReady = true;
}

Result<StepStats>
Engine::step()
{
    if (sched_.idle())
        return Status::failedPrecondition(
            "no live requests to decode; submit() first");

    StepStats stats;
    const double t0 = clock_->now();
    // Deadline sweep, admission, work assignment and the KV
    // reservation pass: after this, every planned column has its
    // arena slot block-backed, so the numeric step cannot fail.
    const StepPlan &plan = sched_.plan(t0);
    for (const RequestId id : plan.deadlineIds)
        requests_[id - 1].terminal = Status::deadlineExceeded(
            "request ", id, " missed its ",
            sched_.find(id)->request.deadlineS, "s deadline at t=",
            plan.deadlineClockS);
    for (const RequestId id : plan.evictedIds) {
        Request &req = requests_[id - 1];
        req.promptEmbeds = MatrixD();
        req.lifeReady = false;
        req.restartPending = true;
        req.requeuedAtS = t0;
    }
    for (const RequestId id : plan.shedIds)
        requests_[id - 1].terminal = Status::resourceExhausted(
            "request ", id, " shed: KV budget of ",
            options_.kvBudgetBytes, " bytes cannot back its next token ",
            "(policy ", degradationPolicyName(options_.policy), ")");
    stats.deadlineIds = plan.deadlineIds;
    stats.shedIds = plan.shedIds;
    stats.evictedIds = plan.evictedIds;
    if (plan.work.empty()) {
        // Governance (or the sweep) left nothing to compute. Not an
        // error — an empty step that does not count toward
        // stepsExecuted().
        stats.admitted = plan.admitted;
        stats.queueDepth = sched_.queue().size();
        stats.kvBlocksInUse = arena_.blocksInUse();
        stats.kvBytesInUse = arena_.bytesInUse();
        return stats;
    }

    const OptConfig &cfg = model_.config();
    const std::size_t h = cfg.hidden;
    const std::size_t b = plan.work.size();
    stats.liveRequests = b;

    // First work step of a life: replay the seed (restart hidden
    // redraw + prompt embeddings). A restarted life books its renewed
    // wait into restartSeconds.
    std::vector<Request *> live(b);
    std::vector<KvArena::SeqId> seqs(b);
    for (std::size_t w = 0; w < b; ++w) {
        const ScheduleEntry &entry = *sched_.find(plan.work[w].id);
        Request &req = requests_[plan.work[w].id - 1];
        prepareLife(req, entry);
        if (req.restartPending) {
            req.stats.restartSeconds += t0 - req.requeuedAtS;
            req.restartPending = false;
        }
        live[w] = &req;
        seqs[w] = entry.seq;
    }

    // Gather: each working request's columns are contiguous in the
    // fused batch — its next prefill chunk (prompt embedding columns)
    // while its prompt is unfinished, its one decode column (the
    // latest hidden state) after — so every layer GEMM below runs
    // once over the whole mixed-width batch.
    appendColumnContexts(plan.work, stats.columnContexts);
    const std::size_t W = stats.columnContexts.size();
    MatrixD x(h, W);
    std::size_t base = 0;
    for (std::size_t w = 0; w < b; ++w) {
        const PlannedWork &pw = plan.work[w];
        const Request &req = *live[w];
        if (pw.prefill) {
            const std::size_t done = sched_.find(pw.id)->prefillDone;
            for (std::size_t j = 0; j < pw.columns; ++j)
                for (std::size_t r = 0; r < h; ++r)
                    x(r, base + j) = req.promptEmbeds(r, done + j);
            stats.prefillIds.push_back(pw.id);
            stats.prefillTokens += pw.columns;
        } else {
            for (std::size_t r = 0; r < h; ++r)
                x(r, base) = req.hidden(r, 0);
            stats.decodedIds.push_back(pw.id);
            stats.decodeTokens += 1;
        }
        base += pw.columns;
    }

    const LutGemmConfig gemmCfg =
        makeGemmConfig(options_.exec, options_.model.mu);
    auto runGemm = [&](std::size_t l, LayerOp op, const MatrixD &in) {
        ++stats.gemmCalls;
        // Sharded path: the executor runs the plan's row slices on its
        // worker groups and concatenates — bit-identical output and
        // canonical (shard-invariant) counters by construction.
        if (shardExec_ != nullptr)
            return shardExec_->run(l, op, in, gemmCfg, &stats.counters);
        const QuantizedLayer &layer = model_.layer(l);
        // The pre-packed overload serves the Simd backend; Reference
        // gathers keys from the bit planes itself.
        if (gemmCfg.backend == LutGemmBackend::Simd)
            return lutGemm(layer.weights(op), in, gemmCfg,
                           layer.keys(op), &stats.counters, &ctx_);
        return lutGemm(layer.weights(op), in, gemmCfg, &stats.counters,
                       &ctx_);
    };

    // Every request gets the same per-column arithmetic as a batch-1
    // step: the GEMM and every vector op treat columns independently,
    // so each request is bit-identical to running alone (the
    // differential suite pins this) — and a prefill chunked any which
    // way is bit-identical to the whole prompt in one step (the
    // prefill suite pins that).
    MatrixD ln, qkv, attn, proj, ffn;
    std::vector<std::vector<KvTokenRef>> refs(b);
    std::vector<AttentionSpan> spans(b);
    double tOp = clock_->now();
    stats.otherSeconds = tOp - t0;
    for (std::size_t l = 0; l < model_.layers(); ++l) {
        for (const LayerOp op : layerOps_) {
            switch (op) {
              case LayerOp::LayerNorm1:
              case LayerOp::LayerNorm2:
                ln = referenceLayerNorm(x);
                break;
              case LayerOp::QkvProj:
                qkv = runGemm(l, op, ln);
                break;
              case LayerOp::Attention: {
                MatrixD q(h, W);
                std::size_t c0 = 0;
                for (std::size_t w = 0; w < b; ++w) {
                    // Every column's K/V go straight into reserved
                    // arena slots (the plan reserved them, so the
                    // refs taken after the appends stay valid). The
                    // request's columns then form one causal span:
                    // position held + j sees held + j + 1 tokens, and
                    // a decode column sees the full sequence.
                    const std::size_t cols = plan.work[w].columns;
                    for (std::size_t j = 0; j < cols; ++j) {
                        const std::size_t c = c0 + j;
                        const KvArena::TokenSlot slot =
                            arena_.appendToken(seqs[w], l);
                        for (std::size_t r = 0; r < h; ++r) {
                            q(r, c) = qkv(r, c);
                            slot.k[r] = qkv(h + r, c);
                            slot.v[r] = qkv(2 * h + r, c);
                        }
                    }
                    arena_.tokenRefs(seqs[w], l, refs[w]);
                    spans[w] = AttentionSpan{refs[w].data(),
                                             refs[w].size(), c0, cols};
                    c0 += cols;
                }
                attn = referenceChunkAttention(q, spans, cfg.heads);
                break;
              }
              case LayerOp::OutProj:
                proj = runGemm(l, op, attn);
                break;
              case LayerOp::Residual1:
              case LayerOp::Residual2:
                x = referenceResidualAdd(x, proj);
                break;
              case LayerOp::Fc1:
                ffn = runGemm(l, op, ln);
                break;
              case LayerOp::Gelu:
                ffn = referenceGelu(ffn);
                break;
              case LayerOp::Fc2:
                proj = runGemm(l, op, ffn);
                break;
            }
            const double tEnd = clock_->now();
            stats.opSeconds[static_cast<std::size_t>(op)] += tEnd - tOp;
            tOp = tEnd;
        }
    }

    const double t1 = tOp;
    stats.seconds = t1 - t0;

    // Everything still queued sat out this step (retirement below
    // only shrinks the active list); count that before complete()
    // refills the slots retirement frees.
    for (const RequestId id : sched_.queue())
        requests_[id - 1].stats.queuedSteps += 1;
    sched_.complete(t0);

    // Scatter + per-request accounting. Counter shares are
    // token-weighted: each request gets the per-column share times the
    // columns it contributed, and the shares must reassemble to the
    // step total exactly.
    const LutGemmCounters share = perColumnShare(stats.counters, W);
    LutGemmCounters reassembled;
    base = 0;
    for (std::size_t w = 0; w < b; ++w) {
        const PlannedWork &pw = plan.work[w];
        Request &req = *live[w];
        const LutGemmCounters reqShare = scaleCounters(share, pw.columns);
        req.stats.counters += reqShare;
        reassembled += reqShare;
        req.stats.gemmCalls += stats.gemmCalls;
        req.stats.decodeSeconds += stats.seconds;
        if (pw.prefill) {
            req.stats.prefillTokens += pw.columns;
            req.stats.prefillSeconds += stats.seconds;
            if (sched_.find(pw.id)->remainingPrompt() == 0) {
                // Prefill complete: the final prompt column's output
                // is the first decode input; the embeddings are spent.
                for (std::size_t r = 0; r < h; ++r)
                    req.hidden(r, 0) = x(r, base + pw.columns - 1);
                req.promptEmbeds = MatrixD();
            }
        } else {
            for (std::size_t r = 0; r < h; ++r)
                req.hidden(r, 0) = x(r, base);
            req.stats.tokensDecoded += 1;
            if (req.stats.tokensDecoded == 1)
                req.stats.ttftSeconds = t1 - sched_.find(pw.id)->baseS;
        }
        base += pw.columns;
    }
    FIGLUT_ASSERT(reassembled == stats.counters,
                  "token-weighted counter shares did not reassemble to ",
                  "the fused-step total");
    for (const RequestId id : plan.retiredIds)
        retireSequence(id);
    stats.retired = plan.retiredIds.size();
    stats.admitted = plan.admitted;
    stats.queueDepth = sched_.queue().size();
    stats.kvBlocksInUse = arena_.blocksInUse();
    stats.kvBytesInUse = arena_.bytesInUse();
    return stats;
}

Result<RequestSnapshot>
Engine::poll(RequestId id) const
{
    const ScheduleEntry *entry = sched_.find(id);
    if (entry == nullptr)
        return Status::notFound("unknown request id ", id);
    const Request &req = requests_[id - 1];
    RequestSnapshot snap;
    snap.id = id;
    snap.state = entry->state;
    snap.hidden = req.hidden;
    snap.kvLength = requestStateTerminal(entry->state)
                        ? req.retainedKv.length()
                        : entry->held();
    snap.stats = req.stats;
    snap.stats.queueSeconds = entry->queueS;
    snap.stats.preemptions = entry->evictions;
    snap.terminal = req.terminal;
    return snap;
}

Status
Engine::cancel(RequestId id)
{
    if (Status s = checkLive(id); !s.ok())
        return s;
    retireSequence(id);
    sched_.cancel(id);
    requests_[id - 1].terminal =
        Status::cancelled("request ", id, " cancelled by the client");
    return Status::okStatus();
}

Status
Engine::resetKv(RequestId id)
{
    if (Status s = checkLive(id); !s.ok())
        return s;
    // The prompt is gone for good, like the old contiguous clear(); a
    // half-done prefill stops here — the request decodes from its
    // current hidden state with an empty context.
    sched_.resetKv(id);
    requests_[id - 1].promptEmbeds = MatrixD();
    return Status::okStatus();
}

Result<KvCache>
Engine::kvHistory(RequestId id) const
{
    const ScheduleEntry *entry = sched_.find(id);
    if (entry == nullptr)
        return Status::notFound("unknown request id ", id);
    if (entry->seq != KvArena::kInvalidSeq)
        return arena_.materialize(entry->seq);
    return requests_[id - 1].retainedKv;
}

std::vector<KernelTask>
Engine::workloadTasks() const
{
    // step() admits from the queue before decoding, so the scored
    // batch is the *prospective* one: live requests plus the queued
    // requests the next step will admit into free slots, each with
    // its prefill chunk or one decode column.
    std::vector<std::size_t> contextLens;
    appendColumnContexts(sched_.preview(), contextLens);
    if (contextLens.empty())
        return {};
    WorkloadOptions opts;
    opts.batch = contextLens.size();
    opts.weightBits = options_.model.weightBits;
    opts.includeVector = options_.includeVector;
    opts.groupSize = options_.model.groupSize;
    opts.hasOffset = options_.model.useOffset;
    opts.shards = shards_;
    return decodeStepWorkload(model_.config(), opts, contextLens);
}

WorkloadResult
Engine::simulate(const HwConfig &hw) const
{
    const Accelerator acc(hw);
    return acc.runWorkload(workloadTasks());
}

} // namespace serve
} // namespace figlut
