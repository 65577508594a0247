/** @file Tests for engine/workload configuration. */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "sim/engine_config.h"

namespace figlut {
namespace {

TEST(GemmShape, OpsAndMacs)
{
    GemmShape s;
    s.m = 10;
    s.n = 20;
    s.batch = 3;
    EXPECT_DOUBLE_EQ(s.macs(), 600.0);
    EXPECT_DOUBLE_EQ(s.ops(), 1200.0);
}

TEST(GemmShape, ValidationCatchesBadShapes)
{
    GemmShape s;
    s.m = 0;
    s.n = 4;
    s.batch = 1;
    EXPECT_THROW(s.validate(), FatalError);
    s.m = 4;
    s.weightBits = 0;
    EXPECT_THROW(s.validate(), FatalError);
    s.weightBits = 9;
    EXPECT_THROW(s.validate(), FatalError);
    s.weightBits = 4;
    s.groupSize = 5;
    EXPECT_THROW(s.validate(), FatalError);
    s.groupSize = 4;
    EXPECT_NO_THROW(s.validate());
}

TEST(HwConfig, BitSerialClassification)
{
    HwConfig hw;
    hw.engine = EngineKind::FPE;
    EXPECT_FALSE(hw.bitSerial());
    hw.engine = EngineKind::FIGNA;
    EXPECT_FALSE(hw.bitSerial());
    hw.engine = EngineKind::IFPU;
    EXPECT_TRUE(hw.bitSerial());
    hw.engine = EngineKind::FIGLUT_F;
    EXPECT_TRUE(hw.bitSerial());
    hw.engine = EngineKind::FIGLUT_I;
    EXPECT_TRUE(hw.bitSerial());
}

TEST(HwConfig, IntegerDatapathClassification)
{
    HwConfig hw;
    hw.engine = EngineKind::FPE;
    EXPECT_FALSE(hw.integerDatapath());
    hw.engine = EngineKind::FIGLUT_F;
    EXPECT_FALSE(hw.integerDatapath());
    hw.engine = EngineKind::FIGNA;
    EXPECT_TRUE(hw.integerDatapath());
    hw.engine = EngineKind::FIGLUT_I;
    EXPECT_TRUE(hw.integerDatapath());
}

TEST(HwConfig, FixedEnginesPadSubFourBit)
{
    HwConfig hw;
    hw.engine = EngineKind::FIGNA;
    hw.fixedWeightBits = 4;
    EXPECT_EQ(hw.processedWeightBits(2), 4);
    EXPECT_EQ(hw.processedWeightBits(4), 4);
    EXPECT_THROW(hw.processedWeightBits(8), FatalError);
    hw.fixedWeightBits = 8;
    EXPECT_EQ(hw.processedWeightBits(8), 8);
    EXPECT_EQ(hw.processedWeightBits(3), 8);
}

TEST(HwConfig, BitSerialProcessesNativeWidth)
{
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    for (int q = 1; q <= 8; ++q)
        EXPECT_EQ(hw.processedWeightBits(q), q);
}

TEST(HwConfig, PeakBinaryLanesEqualAcrossEngines)
{
    // The paper's equal-throughput configuration: 16384 binary lanes.
    for (const auto e : kAllEngines) {
        HwConfig hw;
        hw.engine = e;
        EXPECT_DOUBLE_EQ(hw.peakBinaryLanes(), 16384.0)
            << engineName(e);
    }
}

TEST(HwConfig, DescribeMentionsEngineAndFormat)
{
    HwConfig hw;
    hw.engine = EngineKind::FIGLUT_I;
    hw.actFormat = ActFormat::BF16;
    const auto text = hw.describe();
    EXPECT_NE(text.find("FIGLUT-I"), std::string::npos);
    EXPECT_NE(text.find("BF16"), std::string::npos);
}

TEST(HwConfig, ValidationCatchesBadParams)
{
    HwConfig hw;
    hw.mu = 1;
    EXPECT_THROW(hw.validate(), FatalError);
    hw.mu = 4;
    hw.k = 0;
    EXPECT_THROW(hw.validate(), FatalError);
    hw.k = 32;
    hw.fixedWeightBits = 5;
    EXPECT_THROW(hw.validate(), FatalError);
    hw.fixedWeightBits = 8;
    EXPECT_NO_THROW(hw.validate());
}

} // namespace
} // namespace figlut
