/** @file Unit tests for the CSV writer. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/csv.h"
#include "common/logging.h"

namespace figlut {
namespace {

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

class CsvWriterTest : public ::testing::Test
{
  protected:
    // One file per case: ctest -j runs the cases as separate processes
    // that share TempDir(), so a common name would let them collide.
    std::string path_ =
        ::testing::TempDir() + "figlut_csv_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv";

    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvWriterTest, WritesHeaderAndRows)
{
    {
        CsvWriter csv(path_, {"a", "b"});
        csv.addRow({"1", "2"});
        csv.addRow({"3", "4"});
        EXPECT_EQ(csv.rowCount(), 2u);
    }
    EXPECT_EQ(readAll(path_), "a,b\n1,2\n3,4\n");
}

TEST_F(CsvWriterTest, QuotesSpecialCharacters)
{
    {
        CsvWriter csv(path_, {"v"});
        csv.addRow({"has,comma"});
        csv.addRow({"has\"quote"});
    }
    EXPECT_EQ(readAll(path_), "v\n\"has,comma\"\n\"has\"\"quote\"\n");
}

TEST_F(CsvWriterTest, WidthMismatchThrows)
{
    CsvWriter csv(path_, {"a", "b"});
    EXPECT_THROW(csv.addRow({"only"}), FatalError);
}

TEST_F(CsvWriterTest, EmptyHeaderThrows)
{
    EXPECT_THROW(CsvWriter(path_, {}), FatalError);
}

TEST(CsvEscape, PassthroughWhenClean)
{
    EXPECT_EQ(CsvWriter::escape("plain"), "plain");
    EXPECT_EQ(CsvWriter::escape("a b"), "a b");
}

TEST(CsvWriterStandalone, UnwritablePathThrows)
{
    EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), FatalError);
}

} // namespace
} // namespace figlut
