#include "runtime/exec_options.h"

#include <algorithm>
#include <cstdlib>

namespace figlut {
namespace {

/** FIGLUT_SHARDS, parsed and clamped once per process. */
int
envShardCount()
{
    static const int value = [] {
        const char *env = std::getenv("FIGLUT_SHARDS");
        if (env == nullptr || *env == '\0')
            return 1;
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end == env || *end != '\0' || parsed < 1)
            return 1; // unparseable or nonsense: unsharded
        return static_cast<int>(
            std::min<long>(parsed, kMaxShards));
    }();
    return value;
}

} // namespace

int
resolveShardCount(int requested)
{
    if (requested >= 1)
        return std::min(requested, kMaxShards);
    return envShardCount();
}

LutGemmConfig
makeGemmConfig(const ExecOptions &exec, int mu)
{
    LutGemmConfig cfg;
    cfg.mu = mu;
    cfg.actFormat = exec.actFormat;
    cfg.arith = exec.arith;
    cfg.preAligned = exec.preAligned;
    cfg.alignFracBits = exec.alignFracBits;
    cfg.backend = exec.backend;
    cfg.threads = exec.threads;
    cfg.blockRows = exec.blockRows;
    return cfg;
}

Status
validateExecOptions(const ExecOptions &exec, int mu,
                    std::size_t groupColumns)
{
    if (exec.shards > kMaxShards)
        return Status::invalidArgument(
            "ExecOptions::shards must be <= ", kMaxShards, ", got ",
            exec.shards, " (<= 0 selects FIGLUT_SHARDS, else 1)");
    return validateLutGemmConfig(makeGemmConfig(exec, mu), groupColumns);
}

} // namespace figlut
