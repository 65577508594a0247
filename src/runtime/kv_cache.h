/**
 * @file
 * Per-sequence KV cache of a decoder: the contiguous snapshot form of
 * one request's history.
 *
 * A KvCache holds, for every decoder layer, the K and V snapshots of
 * each decode step executed so far (one hidden x width matrix per
 * step, oldest first). All layers grow in lock-step — a decode step
 * appends exactly one entry per layer — so the cache has one length.
 * The serve Engine materializes one single-column cache per request
 * from its paged KV arena (Engine::kvHistory), which is what makes
 * ragged (per-request) context lengths comparable.
 */

#ifndef FIGLUT_RUNTIME_KV_CACHE_H
#define FIGLUT_RUNTIME_KV_CACHE_H

#include <cstddef>
#include <vector>

#include "common/matrix.h"

namespace figlut {

/** KV snapshots of one sequence (or one lock-step batch), all layers. */
class KvCache
{
  public:
    KvCache() = default;

    /** A cache for `layers` decoder layers, initially empty. */
    explicit KvCache(std::size_t layers) : k_(layers), v_(layers) {}

    std::size_t layers() const { return k_.size(); }

    /** Decode steps cached (identical across layers by construction). */
    std::size_t
    length() const
    {
        return k_.empty() ? 0 : k_.front().size();
    }

    bool empty() const { return length() == 0; }

    /**
     * Append one decode step's K/V snapshot for `layer`. Within one
     * decode step this must be called exactly once per layer; k and v
     * must share a shape (hidden x width, the same width every step).
     */
    void append(std::size_t layer, MatrixD k, MatrixD v);

    /** K snapshots of `layer`, oldest first. */
    const std::vector<MatrixD> &keys(std::size_t layer) const;
    /** V snapshots of `layer`, oldest first. */
    const std::vector<MatrixD> &values(std::size_t layer) const;

    /** Drop every cached step (weights/config are unaffected). */
    void clear();

    /** Cached payload in bytes (doubles held across all layers). */
    std::size_t bytes() const;

    bool
    operator==(const KvCache &other) const
    {
        return k_ == other.k_ && v_ == other.v_;
    }
    bool operator!=(const KvCache &other) const { return !(*this == other); }

  private:
    std::vector<std::vector<MatrixD>> k_;
    std::vector<std::vector<MatrixD>> v_;
};

} // namespace figlut

#endif // FIGLUT_RUNTIME_KV_CACHE_H
