// Tests for the structured measurement errors.
#include "perfeng/resilience/measurement_error.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using pe::resilience::FailureKind;
using pe::resilience::MeasurementError;

TEST(MeasurementErrorTest, CarriesStructuredFields) {
  const MeasurementError e(FailureKind::kUnstable, "spmv", 4, 1.5,
                           "CV too high");
  EXPECT_EQ(e.kind(), FailureKind::kUnstable);
  EXPECT_EQ(e.label(), "spmv");
  EXPECT_EQ(e.attempts(), 4);
  EXPECT_DOUBLE_EQ(e.elapsed_seconds(), 1.5);
  const std::string what = e.what();
  EXPECT_NE(what.find("spmv"), std::string::npos);
  EXPECT_NE(what.find("unstable"), std::string::npos);
  EXPECT_NE(what.find("4 attempts"), std::string::npos);
  EXPECT_NE(what.find("CV too high"), std::string::npos);
}

TEST(MeasurementErrorTest, KindNames) {
  EXPECT_EQ(pe::resilience::to_string(FailureKind::kTimeout), "timeout");
  EXPECT_EQ(pe::resilience::to_string(FailureKind::kFault), "fault");
  EXPECT_EQ(pe::resilience::to_string(FailureKind::kUnstable), "unstable");
}

}  // namespace
