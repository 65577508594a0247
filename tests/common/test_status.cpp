/**
 * @file
 * Tests for the recoverable error model (common/status.h): Status
 * codes/messages and Result<T> value/error behaviour, including
 * move-only payloads (the Engine factory's shape).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/status.h"

namespace figlut {
namespace {

TEST(Status, DefaultAndFactoryAreOk)
{
    const Status def;
    EXPECT_TRUE(def.ok());
    EXPECT_EQ(def.code(), StatusCode::Ok);
    EXPECT_TRUE(def.message().empty());
    EXPECT_EQ(def.toString(), "OK");
    EXPECT_TRUE(Status::okStatus().ok());
}

TEST(Status, ErrorFactoriesCarryCodeAndStreamedMessage)
{
    const Status s = Status::invalidArgument("threads must be <= ", 16,
                                             ", got ", 99);
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(s.message(), "threads must be <= 16, got 99");
    EXPECT_EQ(s.toString(),
              "INVALID_ARGUMENT: threads must be <= 16, got 99");

    EXPECT_EQ(Status::notFound("x").code(), StatusCode::NotFound);
    EXPECT_EQ(Status::resourceExhausted("x").code(),
              StatusCode::ResourceExhausted);
    EXPECT_EQ(Status::failedPrecondition("x").code(),
              StatusCode::FailedPrecondition);
    EXPECT_EQ(Status::deadlineExceeded("x").code(),
              StatusCode::DeadlineExceeded);
    EXPECT_EQ(Status::cancelled("x").code(), StatusCode::Cancelled);
}

TEST(Status, CodeNamesAreStable)
{
    EXPECT_STREQ(statusCodeName(StatusCode::Ok), "OK");
    EXPECT_STREQ(statusCodeName(StatusCode::InvalidArgument),
                 "INVALID_ARGUMENT");
    EXPECT_STREQ(statusCodeName(StatusCode::NotFound), "NOT_FOUND");
    EXPECT_STREQ(statusCodeName(StatusCode::ResourceExhausted),
                 "RESOURCE_EXHAUSTED");
    EXPECT_STREQ(statusCodeName(StatusCode::FailedPrecondition),
                 "FAILED_PRECONDITION");
    EXPECT_STREQ(statusCodeName(StatusCode::DeadlineExceeded),
                 "DEADLINE_EXCEEDED");
    EXPECT_STREQ(statusCodeName(StatusCode::Cancelled), "CANCELLED");
}

TEST(Result, HoldsValueOnSuccess)
{
    Result<int> r(42);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.status().ok());
    EXPECT_EQ(r.value(), 42);
    r.value() = 7;
    EXPECT_EQ(r.value(), 7);
}

TEST(Result, HoldsStatusOnError)
{
    const Result<int> r(Status::notFound("unknown request id ", 5));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::NotFound);
    EXPECT_THROW(r.value(), PanicError);
}

TEST(Result, SupportsMoveOnlyPayloads)
{
    Result<std::unique_ptr<std::string>> r(
        std::make_unique<std::string>("engine"));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r.value(), "engine");
    auto owned = std::move(r).value();
    EXPECT_EQ(*owned, "engine");
}

TEST(Result, RejectsOkStatusConstruction)
{
    EXPECT_THROW(Result<int>(Status::okStatus()), PanicError);
}

} // namespace
} // namespace figlut
