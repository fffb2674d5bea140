#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace minicost::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("minicost_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::filesystem::path path_;
};

TEST_F(CsvTest, RoundTripsSimpleRows) {
  {
    CsvWriter writer(path_);
    writer.header({"a", "b", "c"});
    writer.row({"1", "2", "3"});
    writer.row({"x", "y", "z"});
  }
  const auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"x", "y", "z"}));
}

TEST_F(CsvTest, EscapesCommasQuotesAndNewlines) {
  {
    CsvWriter writer(path_);
    writer.row({"a,b", "say \"hi\"", "plain"});
  }
  const auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "say \"hi\"");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST_F(CsvTest, CreatesParentDirectories) {
  const auto nested = path_.parent_path() / "minicost_nested_dir" / "file.csv";
  {
    CsvWriter writer(nested);
    writer.row({"ok"});
  }
  EXPECT_TRUE(std::filesystem::exists(nested));
  std::filesystem::remove_all(nested.parent_path());
}

TEST(SplitCsvLineTest, HandlesEmptyFields) {
  const auto fields = split_csv_line("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

TEST(SplitCsvLineTest, HandlesQuotedCommas) {
  const auto fields = split_csv_line(R"("a,b",c)");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
}

TEST(SplitCsvLineTest, HandlesEscapedQuotes) {
  const auto fields = split_csv_line(R"("say ""hi""",x)");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(SplitCsvLineTest, StripsCarriageReturns) {
  const auto fields = split_csv_line("a,b\r");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[1], "b");
}

TEST(ReadCsvTest, ThrowsOnMissingFile) {
  EXPECT_THROW(read_csv("/nonexistent/minicost/file.csv"), std::runtime_error);
}

}  // namespace
}  // namespace minicost::util
