/**
 * @file
 * The generic-vector bodies of core/vector_kernels.h compiled at the
 * baseline ISA, which on x86-64 and aarch64 is 2 doubles per vector:
 * the instance simd_neon.cpp compiles, checked on every host against
 * the scalar table. The folds run drawFold's mixes, so a 2-lane vector
 * often holds one psum inside the exact-conversion range and one past
 * it.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/simd.h"
#include "core/vector_kernels.h"
#include "simd_kernel_checks.h"

namespace figlut {
namespace {

/** The scalar table with every body entry swapped in. */
SimdKernels
bodyTable()
{
    SimdKernels k = simdKernelsFor(SimdIsa::Scalar);
    k.foldIntPlaneFp32 = simd_detail::foldIntPlaneFp32Body;
    k.foldOffsetFp32 = simd_detail::foldOffsetFp32Body;
    k.addFlat = simd_detail::addFlatBody;
    k.sumLanes = simd_detail::sumLanesBody;
    k.sumSqDevLanes = simd_detail::sumSqDevLanesBody;
    k.normalizeFlat = simd_detail::normalizeFlatBody;
    k.geluFlat = simd_detail::geluFlatBody;
    return k;
}

const std::string kName =
    "baseline body (" + std::to_string(simd_detail::kLanes) + " lanes)";

TEST(VectorKernelsBaseline, FoldsMatchScalarTable)
{
    Rng rng(4600);
    expectFoldsMatchScalar(bodyTable(), kName, rng);
}

TEST(VectorKernelsBaseline, FlatEntriesMatchScalarTable)
{
    Rng rng(4800);
    expectFlatEntriesMatchScalar(bodyTable(), kName, rng);
}

} // namespace
} // namespace figlut
