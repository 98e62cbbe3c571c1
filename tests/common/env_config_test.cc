#include "common/env_config.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace sqlb {
namespace {

class EnvConfigTest : public ::testing::Test {
 protected:
  void SetEnv(const char* name, const char* value) {
    ::setenv(name, value, /*overwrite=*/1);
    touched_.push_back(name);
  }
  void TearDown() override {
    for (const char* name : touched_) ::unsetenv(name);
  }
  std::vector<const char*> touched_;
};

TEST_F(EnvConfigTest, StringFallback) {
  EXPECT_EQ(GetEnvString("SQLB_TEST_UNSET", "dflt"), "dflt");
  SetEnv("SQLB_TEST_STR", "hello");
  EXPECT_EQ(GetEnvString("SQLB_TEST_STR", "dflt"), "hello");
}

TEST_F(EnvConfigTest, Uint64ParsesOrFallsBack) {
  EXPECT_EQ(GetEnvUint64("SQLB_TEST_UNSET", 7), 7u);
  SetEnv("SQLB_TEST_U64", "123");
  EXPECT_EQ(GetEnvUint64("SQLB_TEST_U64", 7), 123u);
  SetEnv("SQLB_TEST_U64", "not-a-number");
  EXPECT_EQ(GetEnvUint64("SQLB_TEST_U64", 7), 7u);
  SetEnv("SQLB_TEST_U64", "12abc");
  EXPECT_EQ(GetEnvUint64("SQLB_TEST_U64", 7), 7u);
}

TEST_F(EnvConfigTest, DoubleParsesOrFallsBack) {
  EXPECT_EQ(GetEnvDouble("SQLB_TEST_UNSET", 0.8), 0.8);
  SetEnv("SQLB_TEST_DBL", "0.35");
  EXPECT_DOUBLE_EQ(GetEnvDouble("SQLB_TEST_DBL", 0.8), 0.35);
  SetEnv("SQLB_TEST_DBL", "oops");
  EXPECT_EQ(GetEnvDouble("SQLB_TEST_DBL", 0.8), 0.8);
}

TEST_F(EnvConfigTest, BoolRecognizesCommonSpellings) {
  EXPECT_FALSE(GetEnvBool("SQLB_TEST_UNSET", false));
  EXPECT_TRUE(GetEnvBool("SQLB_TEST_UNSET", true));
  for (const char* yes : {"1", "true", "TRUE", "yes", "on"}) {
    SetEnv("SQLB_TEST_BOOL", yes);
    EXPECT_TRUE(GetEnvBool("SQLB_TEST_BOOL", false)) << yes;
  }
  for (const char* no : {"0", "false", "no", "OFF"}) {
    SetEnv("SQLB_TEST_BOOL", no);
    EXPECT_FALSE(GetEnvBool("SQLB_TEST_BOOL", true)) << no;
  }
  SetEnv("SQLB_TEST_BOOL", "maybe");
  EXPECT_TRUE(GetEnvBool("SQLB_TEST_BOOL", true));
}

TEST_F(EnvConfigTest, BenchHelpers) {
  SetEnv("SQLB_REPEAT", "5");
  EXPECT_EQ(BenchRepetitions(2), 5u);
  SetEnv("SQLB_SEED", "99");
  EXPECT_EQ(BenchSeed(42), 99u);
  SetEnv("SQLB_RESULTS", "");  // empty reads as unset
  SetEnv("SQLB_FAST", "0");
  EXPECT_EQ(ResultsDirectory(), "results");
  SetEnv("SQLB_FAST", "1");
  EXPECT_TRUE(FastBenchMode());
  // Fast runs never write over the committed full-size results.
  EXPECT_EQ(ResultsDirectory(), "results/fast");
  SetEnv("SQLB_RESULTS", "/tmp/sqlb_results");
  EXPECT_EQ(ResultsDirectory(), "/tmp/sqlb_results");
}

}  // namespace
}  // namespace sqlb
