#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "io/csv.hpp"
#include "io/env.hpp"
#include "io/table.hpp"

namespace bsr::io {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"A", "LongHeader"});
  t.row().cell("x").cell(std::int64_t{42});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("A"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, RejectsEmptyHeaderAndBadArity) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table t({"A", "B"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, PercentFormatting) {
  EXPECT_EQ(format_percent(0.8541), "85.41");
  EXPECT_EQ(format_percent(1.0), "100.00");
  EXPECT_EQ(format_percent(0.5313, 1), "53.1");
  EXPECT_EQ(format_double(3.14159, 3), "3.142");
}

TEST(Table, RowBuilderTypes) {
  Table t({"a", "b", "c", "d"});
  t.row().cell("s").cell(std::uint64_t{7}).cell(2.5, 1).percent(0.25);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, DocumentSerialization) {
  CsvWriter w({"x", "y"});
  w.add_row({"1", "2"});
  w.add_row({"a,b", "c"});
  const std::string doc = w.to_string();
  EXPECT_EQ(doc, "x,y\n1,2\n\"a,b\",c\n");
}

TEST(Csv, RejectsArityMismatch) {
  CsvWriter w({"x"});
  EXPECT_THROW(w.add_row({"1", "2"}), std::invalid_argument);
}

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~EnvGuard() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(Env, Defaults) {
  unsetenv("REPRO_SCALE");
  unsetenv("REPRO_SOURCES");
  unsetenv("REPRO_SEED");
  const auto env = experiment_env();
  EXPECT_DOUBLE_EQ(env.scale, 1.0);
  EXPECT_EQ(env.bfs_sources, 512u);
}

TEST(Env, ParsesOverrides) {
  EnvGuard scale("REPRO_SCALE", "0.25");
  EnvGuard sources("REPRO_SOURCES", "64");
  EnvGuard seed("REPRO_SEED", "7");
  const auto env = experiment_env();
  EXPECT_DOUBLE_EQ(env.scale, 0.25);
  EXPECT_EQ(env.bfs_sources, 64u);
  EXPECT_EQ(env.seed, 7u);
}

TEST(Env, RejectsGarbage) {
  EnvGuard scale("REPRO_SCALE", "banana");
  EXPECT_THROW((void)experiment_env(), std::runtime_error);
}

TEST(Env, RejectsOutOfRangeScale) {
  EnvGuard scale("REPRO_SCALE", "99");
  EXPECT_THROW((void)experiment_env(), std::runtime_error);
}

TEST(Env, ScaledCountsKeepMinimum) {
  ExperimentEnv env;
  env.scale = 0.001;
  EXPECT_EQ(env.scaled(100, 5), 5u);
  env.scale = 0.5;
  EXPECT_EQ(env.scaled(100, 5), 50u);
}

}  // namespace
}  // namespace bsr::io
