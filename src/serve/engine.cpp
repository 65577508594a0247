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

bool
countersEqual(const LutGemmCounters &a, const LutGemmCounters &b)
{
    return a.lutGenerations == b.lutGenerations &&
           a.generatorAdds == b.generatorAdds &&
           a.lutReads == b.lutReads &&
           a.racAccumulates == b.racAccumulates &&
           a.scaleMuls == b.scaleMuls && a.offsetOps == b.offsetOps;
}

void
accumulate(LutGemmCounters &into, const LutGemmCounters &add)
{
    into.lutGenerations += add.lutGenerations;
    into.generatorAdds += add.generatorAdds;
    into.lutReads += add.lutReads;
    into.racAccumulates += add.racAccumulates;
    into.scaleMuls += add.scaleMuls;
    into.offsetOps += add.offsetOps;
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
        // One decode step needs at least one block on every layer.
        const std::size_t blockBytes =
            options.kvBlockTokens * 2 * model.hidden * sizeof(double);
        const std::size_t floor = blockBytes * model.layers;
        if (options.kvBudgetBytes < floor)
            return Status::invalidArgument(
                "Engine kvBudgetBytes ", options.kvBudgetBytes,
                " cannot hold one block per layer (", model.layers,
                " layers x ", blockBytes, "-byte blocks = ", floor,
                " bytes); raise the budget or shrink kvBlockTokens");
    }
    return validateExecOptions(options.exec, options.model.mu);
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
      arena_(arenaOptionsFor(model, options), options.faults)
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

Engine::Request *
Engine::find(RequestId id)
{
    const auto it = requests_.find(id);
    return it == requests_.end() ? nullptr : &it->second;
}

const Engine::Request *
Engine::find(RequestId id) const
{
    const auto it = requests_.find(id);
    return it == requests_.end() ? nullptr : &it->second;
}

std::size_t
Engine::contextTokens(const Request &req) const
{
    // The arena sequence is authoritative while it exists; otherwise
    // (queued, or re-queued after an eviction) the analytic count is
    // the per-life bookkeeping. Unlike the synthetic-prompt era this
    // is honest: prompt entries exist only once prefill computed them.
    if (req.seq != KvArena::kInvalidSeq)
        return arena_.tokens(req.seq);
    return req.prefillDone + req.lifeTokens;
}

std::size_t
Engine::remainingPrompt(const Request &req) const
{
    const std::size_t prompt =
        req.promptDropped ? 0 : req.options.promptTokens;
    return prompt > req.prefillDone ? prompt - req.prefillDone : 0;
}

Result<RequestId>
Engine::submit(const RequestOptions &request)
{
    if (request.deadlineS < 0.0)
        return Status::invalidArgument(
            "request deadlineS must be >= 0, got ", request.deadlineS);
    // A new request only bypasses the queue when the queue is empty —
    // earlier submits waiting for a slot keep their FIFO position even
    // if a cancellation just freed one (the next step admits them).
    const bool direct =
        active_.size() < options_.maxBatch && queue_.empty();
    if (!direct && queue_.size() >= options_.maxQueue)
        return Status::resourceExhausted(
            "engine at capacity: ", active_.size(), " live (maxBatch ",
            options_.maxBatch, ") and ", queue_.size(),
            " queued (maxQueue ", options_.maxQueue,
            "); retry after step() retires traffic");

    const RequestId id = nextId_++;
    Request req;
    req.options = request;
    req.submitTimeS = clock_->now();
    // The initial hidden state comes first in the request's RNG
    // stream; the prompt embeddings follow, but are materialized
    // lazily at the request's first work step (see prepareLife) so
    // queued traffic holds no prompt or KV bytes.
    Rng rng(request.seed);
    req.hidden = syntheticActivations(model_.config().hidden, 1, rng);
    if (direct) {
        req.state = RequestState::Active;
        req.admitSeq = ++admitCounter_;
        req.lastActivityS = req.submitTimeS;
        active_.push_back(id);
    } else {
        req.state = RequestState::Queued;
        queue_.push_back(id);
    }
    requests_.emplace(id, std::move(req));
    return id;
}

Status
Engine::provideInput(RequestId id, const MatrixD &hidden)
{
    Request *req = find(id);
    if (req == nullptr)
        return Status::notFound("unknown request id ", id);
    if (requestStateTerminal(req->state))
        return Status::failedPrecondition(
            "request ", id, " already retired (",
            requestStateName(req->state), ")");
    const std::size_t h = model_.config().hidden;
    if (hidden.rows() != h || hidden.cols() != 1)
        return Status::invalidArgument("request input must be ", h,
                                       "x1, got ", hidden.rows(), "x",
                                       hidden.cols());
    req->hidden = hidden;
    return Status::okStatus();
}

std::size_t
Engine::admitFromQueue(double nowS)
{
    // queueSeconds is deliberately NOT stamped here: admission is
    // bookkeeping, not decode. step() stamps it at the start of the
    // first fused step that actually decodes the request, so the full
    // pre-decode wait (queue + admitted-but-idle) lands in one bucket.
    std::size_t admitted = 0;
    while (active_.size() < options_.maxBatch && !queue_.empty()) {
        const RequestId id = queue_.front();
        queue_.pop_front();
        Request &req = requests_.at(id);
        req.state = RequestState::Active;
        req.admitSeq = ++admitCounter_;
        req.lastActivityS = nowS;
        active_.push_back(id);
        ++admitted;
    }
    return admitted;
}

void
Engine::retireSequence(Request &req, bool retain)
{
    if (req.seq == KvArena::kInvalidSeq)
        return;
    if (retain && options_.retainFinishedKv)
        req.retainedKv = arena_.materialize(req.seq);
    arena_.releaseSequence(req.seq);
    req.seq = KvArena::kInvalidSeq;
}

void
Engine::sweepDeadlines(double nowS, std::vector<RequestId> &expired)
{
    // Active columns first, then the queue, both in order — the same
    // sweep order replayTrace() mirrors.
    std::vector<RequestId> sweep(active_.begin(), active_.end());
    sweep.insert(sweep.end(), queue_.begin(), queue_.end());
    for (const RequestId id : sweep) {
        Request &req = requests_.at(id);
        if (req.options.deadlineS <= 0.0 ||
            nowS <= req.submitTimeS + req.options.deadlineS)
            continue;
        retireSequence(req, /*retain=*/false);
        removeFromSchedule(id);
        req.state = RequestState::DeadlineExceeded;
        req.terminal = Status::deadlineExceeded(
            "request ", id, " missed its ", req.options.deadlineS,
            "s deadline at t=", nowS);
        expired.push_back(id);
    }
}

void
Engine::reserveStep(StepStats &stats, std::vector<std::size_t> &work,
                    double nowS)
{
    // Work assignment first: each live request's column count this
    // step — its prefill chunk out of the shared per-step budget, or
    // one decode column (serve/degradation.h).
    std::vector<std::size_t> remaining;
    remaining.reserve(active_.size());
    for (const RequestId id : active_)
        remaining.push_back(remainingPrompt(requests_.at(id)));
    const std::vector<std::size_t> assigned =
        planPrefillChunks(remaining, options_.prefillChunkTokens);

    // The reservation view covers the working requests only: a
    // stalled prefill (chunk budget exhausted this step) needs no new
    // tokens and keeps its held blocks — it is neither a requester
    // nor a victim this step.
    std::vector<ReservationItem> items;
    std::vector<std::size_t> itemToActive;
    items.reserve(active_.size());
    for (std::size_t i = 0; i < active_.size(); ++i) {
        if (assigned[i] == 0)
            continue;
        Request &req = requests_.at(active_[i]);
        if (req.seq == KvArena::kInvalidSeq)
            req.seq = arena_.createSequence();
        ReservationItem item;
        item.seq = req.seq;
        item.needTokens = contextTokens(req) + assigned[i];
        item.lastActivityS = req.lastActivityS;
        item.admitSeq = req.admitSeq;
        items.push_back(item);
        itemToActive.push_back(i);
    }
    const ReservationPlan plan =
        planStepReservations(arena_, options_.policy, items);

    // The planner already released every victim's sequence; apply the
    // request-side transitions here.
    std::vector<char> dropped(active_.size(), 0);
    std::vector<RequestId> evicted;
    for (const std::size_t idx : plan.evicted) {
        const std::size_t slot = itemToActive[idx];
        const RequestId id = active_[slot];
        Request &req = requests_.at(id);
        req.seq = KvArena::kInvalidSeq;
        req.state = RequestState::Preempted;
        req.stats.preemptions += 1;
        req.lifeTokens = 0;
        req.prefillDone = 0;
        req.promptEmbeds = MatrixD();
        req.lifeReady = false;
        req.restartPending = true;
        req.requeuedAtS = nowS;
        dropped[slot] = 1;
        evicted.push_back(id);
        stats.evictedIds.push_back(id);
    }
    for (const std::size_t idx : plan.shed) {
        const std::size_t slot = itemToActive[idx];
        const RequestId id = active_[slot];
        Request &req = requests_.at(id);
        req.seq = KvArena::kInvalidSeq;
        req.state = RequestState::Shed;
        req.terminal = Status::resourceExhausted(
            "request ", id, " shed: KV budget of ",
            options_.kvBudgetBytes, " bytes cannot back its next token ",
            "(policy ", degradationPolicyName(options_.policy), ")");
        dropped[slot] = 1;
        stats.shedIds.push_back(id);
    }

    // Survivors keep their batch order (stalled prefills stay live
    // with zero columns this step); evicted requests rejoin the queue
    // FRONT in admission order, ahead of never-admitted traffic (they
    // already waited once).
    std::vector<RequestId> keep;
    keep.reserve(active_.size());
    work.clear();
    for (std::size_t i = 0; i < active_.size(); ++i) {
        if (dropped[i])
            continue;
        keep.push_back(active_[i]);
        work.push_back(assigned[i]);
    }
    active_ = std::move(keep);
    std::sort(evicted.begin(), evicted.end(),
              [this](RequestId a, RequestId b) {
                  return requests_.at(a).admitSeq >
                         requests_.at(b).admitSeq;
              });
    for (const RequestId id : evicted) {
        requests_.at(id).state = RequestState::Queued;
        queue_.push_front(id);
    }
}

void
Engine::prepareLife(Request &req)
{
    if (req.lifeReady)
        return;
    const std::size_t h = model_.config().hidden;
    // Replay the submit-time RNG stream: hidden state first, then the
    // prompt embeddings. On a preemption restart the redrawn hidden
    // replaces the evicted life's progress (the from-scratch
    // recompute); on a first admission the request still holds that
    // exact draw (or a provideInput override, which must win), so the
    // redraw is discarded.
    Rng rng(req.options.seed);
    MatrixD first = syntheticActivations(h, 1, rng);
    if (req.stats.preemptions > 0)
        req.hidden = std::move(first);
    const std::size_t prompt = remainingPrompt(req);
    if (prompt > 0)
        req.promptEmbeds = syntheticActivations(h, prompt, rng);
    req.lifeReady = true;
}

Result<StepStats>
Engine::step()
{
    if (active_.empty() && queue_.empty())
        return Status::failedPrecondition(
            "no live requests to decode; submit() first");

    StepStats stats;
    const double t0 = clock_->now();
    // Injected skew shifts only the deadline clock: latency accounting
    // stays on the real time source, but deadlines can fire early or
    // late — the overload harness's "clock skew" fault.
    const double skewS = options_.faults != nullptr
                             ? options_.faults->clockSkewS(stepsExecuted_)
                             : 0.0;
    sweepDeadlines(t0 + skewS, stats.deadlineIds);

    stats.admitted = admitFromQueue(t0);
    if (active_.empty()) {
        // The sweep emptied the schedule. Not an error (the caller
        // did have live traffic) — an empty step that decodes nothing
        // and does not count toward stepsExecuted().
        stats.queueDepth = queue_.size();
        stats.kvBlocksInUse = arena_.blocksInUse();
        stats.kvBytesInUse = arena_.bytesInUse();
        return stats;
    }

    // Work assignment + KV reservation pass: after this, every
    // assigned column has its arena slot block-backed, so the numeric
    // step cannot fail.
    std::vector<std::size_t> work;
    reserveStep(stats, work, t0);
    std::vector<Request *> live;
    std::vector<RequestId> liveIds;
    std::vector<std::size_t> columns;
    for (std::size_t i = 0; i < active_.size(); ++i) {
        if (work[i] == 0)
            continue;
        live.push_back(&requests_.at(active_[i]));
        liveIds.push_back(active_[i]);
        columns.push_back(work[i]);
    }
    if (live.empty()) {
        // Governance dropped every working column (all shed, or every
        // budget-holding request evicted and re-queued, leaving at
        // most stalled prefills). Refill and report the empty step;
        // the next step re-assigns the chunk budget.
        stats.admitted += admitFromQueue(t0);
        stats.queueDepth = queue_.size();
        stats.kvBlocksInUse = arena_.blocksInUse();
        stats.kvBytesInUse = arena_.bytesInUse();
        return stats;
    }

    const OptConfig &cfg = model_.config();
    const std::size_t h = cfg.hidden;
    const std::size_t b = live.size();
    stats.liveRequests = b;

    // First work step of a life: replay the seed (restart hidden
    // redraw + prompt embeddings). First work step ever: everything
    // before this instant was waiting (queue + admitted-but-idle), not
    // compute. A restarted life instead books its renewed wait into
    // restartSeconds.
    std::vector<char> prefilling(b, 0);
    std::vector<std::size_t> held(b, 0);
    for (std::size_t w = 0; w < b; ++w) {
        Request &req = *live[w];
        prepareLife(req);
        if (!req.everWorked) {
            req.stats.queueSeconds = t0 - req.submitTimeS;
            req.everWorked = true;
        }
        if (req.restartPending) {
            req.stats.restartSeconds += t0 - req.requeuedAtS;
            req.restartPending = false;
        }
        prefilling[w] = remainingPrompt(req) > 0 ? 1 : 0;
        held[w] = contextTokens(req);
    }

    // Gather: each working request's columns are contiguous in the
    // fused batch — its next prefill chunk (prompt embedding columns)
    // while its prompt is unfinished, its one decode column (the
    // latest hidden state) after — so every layer GEMM below runs
    // once over the whole mixed-width batch.
    std::size_t W = 0;
    for (const std::size_t c : columns)
        W += c;
    MatrixD x(h, W);
    std::size_t base = 0;
    for (std::size_t w = 0; w < b; ++w) {
        Request &req = *live[w];
        if (prefilling[w]) {
            for (std::size_t j = 0; j < columns[w]; ++j)
                for (std::size_t r = 0; r < h; ++r)
                    x(r, base + j) =
                        req.promptEmbeds(r, req.prefillDone + j);
            stats.prefillIds.push_back(liveIds[w]);
            stats.prefillTokens += columns[w];
        } else {
            for (std::size_t r = 0; r < h; ++r)
                x(r, base) = req.hidden(r, 0);
            stats.decodedIds.push_back(liveIds[w]);
            stats.decodeTokens += 1;
        }
        for (std::size_t j = 0; j < columns[w]; ++j)
            stats.columnContexts.push_back(held[w] + j + 1);
        base += columns[w];
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

    // Same per-column arithmetic as a batch-1 Session step: the GEMM
    // and every vector op treat columns independently, so each request
    // is bit-identical to running alone (the differential suite pins
    // this) — and a prefill chunked any which way is bit-identical to
    // the whole prompt in one step (the prefill suite pins that).
    MatrixD ln, qkv, attn, proj, ffn;
    std::vector<std::vector<KvTokenRef>> refs(b);
    std::vector<AttentionSpan> spans(b);
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
                    // arena slots (reserveStep backed them, so the
                    // refs taken after the appends stay valid). The
                    // request's columns then form one causal span:
                    // position held + j sees held + j + 1 tokens, and
                    // a decode column sees the full sequence.
                    for (std::size_t j = 0; j < columns[w]; ++j) {
                        const std::size_t c = c0 + j;
                        const KvArena::TokenSlot slot =
                            arena_.appendToken(live[w]->seq, l);
                        for (std::size_t r = 0; r < h; ++r) {
                            q(r, c) = qkv(r, c);
                            slot.k[r] = qkv(h + r, c);
                            slot.v[r] = qkv(2 * h + r, c);
                        }
                    }
                    arena_.tokenRefs(live[w]->seq, l, refs[w]);
                    spans[w] = AttentionSpan{refs[w].data(),
                                             refs[w].size(), c0,
                                             columns[w]};
                    c0 += columns[w];
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
                ffn = options_.exec.lutGelu ? referenceGeluLut(ffn)
                                            : referenceGelu(ffn);
                break;
              case LayerOp::Fc2:
                proj = runGemm(l, op, ffn);
                break;
            }
        }
    }

    const double t1 = clock_->now();
    stats.seconds = t1 - t0;

    // Scatter + per-request accounting, then retire exhausted budgets.
    // Counter shares are token-weighted: each request gets the
    // per-column share times the columns it contributed, and the
    // shares must reassemble to the step total exactly.
    const LutGemmCounters share = perColumnShare(stats.counters, W);
    LutGemmCounters reassembled;
    std::vector<RequestId> retired;
    base = 0;
    for (std::size_t w = 0; w < b; ++w) {
        Request &req = *live[w];
        const LutGemmCounters reqShare = scaleCounters(share, columns[w]);
        accumulate(req.stats.counters, reqShare);
        accumulate(reassembled, reqShare);
        req.stats.gemmCalls += stats.gemmCalls;
        req.stats.decodeSeconds += stats.seconds;
        req.lastActivityS = t0;
        if (prefilling[w]) {
            req.prefillDone += columns[w];
            req.stats.prefillTokens += columns[w];
            req.stats.prefillSeconds += stats.seconds;
            if (remainingPrompt(req) == 0) {
                // Prefill complete: the final prompt column's output
                // is the first decode input; the embeddings are spent.
                for (std::size_t r = 0; r < h; ++r)
                    req.hidden(r, 0) = x(r, base + columns[w] - 1);
                req.promptEmbeds = MatrixD();
            }
        } else {
            for (std::size_t r = 0; r < h; ++r)
                req.hidden(r, 0) = x(r, base);
            req.stats.tokensDecoded += 1;
            req.lifeTokens += 1;
            if (req.stats.tokensDecoded == 1)
                req.stats.ttftSeconds = t1 - req.submitTimeS;
            if (req.options.maxTokens > 0 &&
                req.lifeTokens >= req.options.maxTokens) {
                req.state = RequestState::Finished;
                retireSequence(req, /*retain=*/true);
                retired.push_back(liveIds[w]);
            }
        }
        base += columns[w];
    }
    FIGLUT_ASSERT(countersEqual(reassembled, stats.counters),
                  "token-weighted counter shares did not reassemble to ",
                  "the fused-step total");
    for (const RequestId id : retired)
        removeFromSchedule(id);
    stats.retired = retired.size();
    // Everything still queued sat out this step's decode; count that
    // before refilling slots freed by retirement (refilling now keeps
    // the batch full between steps and drains FIFO traffic as early
    // as possible).
    for (const RequestId id : queue_)
        requests_.at(id).stats.queuedSteps += 1;
    stats.admitted += admitFromQueue(t0);
    stats.queueDepth = queue_.size();
    stats.kvBlocksInUse = arena_.blocksInUse();
    stats.kvBytesInUse = arena_.bytesInUse();
    ++stepsExecuted_;
    return stats;
}

Result<RequestSnapshot>
Engine::poll(RequestId id) const
{
    const Request *req = find(id);
    if (req == nullptr)
        return Status::notFound("unknown request id ", id);
    RequestSnapshot snap;
    snap.id = id;
    snap.state = req->state;
    snap.hidden = req->hidden;
    snap.kvLength = requestStateTerminal(req->state)
                        ? req->retainedKv.length()
                        : contextTokens(*req);
    snap.stats = req->stats;
    snap.terminal = req->terminal;
    return snap;
}

Status
Engine::cancel(RequestId id)
{
    Request *req = find(id);
    if (req == nullptr)
        return Status::notFound("unknown request id ", id);
    if (requestStateTerminal(req->state))
        return Status::failedPrecondition(
            "request ", id, " already retired (",
            requestStateName(req->state), ")");
    removeFromSchedule(id);
    retireSequence(*req, /*retain=*/true);
    req->state = RequestState::Cancelled;
    req->terminal = Status::cancelled("request ", id,
                                      " cancelled by the client");
    return Status::okStatus();
}

Status
Engine::resetKv(RequestId id)
{
    Request *req = find(id);
    if (req == nullptr)
        return Status::notFound("unknown request id ", id);
    if (requestStateTerminal(req->state))
        return Status::failedPrecondition(
            "request ", id, " already retired (",
            requestStateName(req->state), ")");
    if (req->seq != KvArena::kInvalidSeq)
        arena_.resetSequence(req->seq);
    // The prompt is gone for good, like the old contiguous clear():
    // a later life's prefill must not resurrect it (and a half-done
    // prefill stops here — the request decodes from its current
    // hidden state with an empty context).
    req->promptDropped = true;
    req->prefillDone = 0;
    req->promptEmbeds = MatrixD();
    req->lifeTokens = 0;
    return Status::okStatus();
}

Result<KvCache>
Engine::kvHistory(RequestId id) const
{
    const Request *req = find(id);
    if (req == nullptr)
        return Status::notFound("unknown request id ", id);
    if (req->seq != KvArena::kInvalidSeq)
        return arena_.materialize(req->seq);
    return req->retainedKv;
}

void
Engine::removeFromSchedule(RequestId id)
{
    active_.erase(std::remove(active_.begin(), active_.end(), id),
                  active_.end());
    const auto it = std::find(queue_.begin(), queue_.end(), id);
    if (it != queue_.end())
        queue_.erase(it);
}

std::vector<KernelTask>
Engine::workloadTasks() const
{
    // step() admits from the queue before decoding, so the scored
    // batch is the *prospective* one: live requests plus the queued
    // requests the next step will admit into free slots.
    std::vector<const Request *> next;
    next.reserve(options_.maxBatch);
    for (const RequestId id : active_)
        next.push_back(find(id));
    for (const RequestId id : queue_) {
        if (next.size() >= options_.maxBatch)
            break;
        next.push_back(find(id));
    }
    if (next.empty())
        return {};
    // Mirror step()'s work assignment: each request contributes its
    // prefill chunk (out of the shared per-step budget) or one decode
    // column, and the fused GEMM batch is the total column count.
    std::vector<std::size_t> remaining;
    remaining.reserve(next.size());
    for (const Request *req : next)
        remaining.push_back(remainingPrompt(*req));
    const std::vector<std::size_t> work =
        planPrefillChunks(remaining, options_.prefillChunkTokens);
    // The next step appends before attending, so a column at sequence
    // position p has the analytic (causal) context length p + 1.
    std::vector<std::size_t> contextLens;
    std::size_t W = 0;
    for (std::size_t i = 0; i < next.size(); ++i) {
        const std::size_t heldTokens = contextTokens(*next[i]);
        for (std::size_t j = 0; j < work[i]; ++j)
            contextLens.push_back(heldTokens + j + 1);
        W += work[i];
    }
    WorkloadOptions opts;
    opts.batch = W;
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
