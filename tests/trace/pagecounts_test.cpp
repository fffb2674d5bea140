// The pagecounts reader: both dump grammars through PageviewAggregator,
// each file's time from its name, and every skipped line counted.
#include "trace/pagecounts_parser.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace minicost::trace {
namespace {

using namespace std::chrono;

constexpr sys_days kJul1{2011y / July / 1};
constexpr sys_days kJul15{2011y / July / 15};

void add(PageviewAggregator& aggregator, std::string_view name,
         const std::string& text) {
  std::istringstream in(text);
  aggregator.add_file(name, in);
}

/// The one-file trace of `text` read as the dump file `name`.
RequestTrace read_one(std::string_view name, const std::string& text,
                      std::size_t days = 31, sys_days day0 = kJul1) {
  PageviewAggregator aggregator(days, "en", day0);
  add(aggregator, name, text);
  return aggregator.build_trace(100.0, 0.0, 1);
}

/// A scratch directory holding `files` (name, contents), removed on exit.
struct DumpDir {
  std::filesystem::path path;
  DumpDir(const char* tag,
          std::initializer_list<std::pair<const char*, const char*>> files)
      : path(std::filesystem::temp_directory_path() / tag) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    for (const auto& [name, text] : files) std::ofstream(path / name) << text;
  }
  ~DumpDir() { std::filesystem::remove_all(path); }
};

TEST(ParsePagecountsLineTest, ParsesClassicFormat) {
  const RequestTrace trace =
      read_one("pagecounts-20110701-000000", "en Main_Page 12345 9876543\n");
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_EQ(trace.file(0).name, "Main_Page");
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 12345.0);
}

TEST(ParsePagecountsLineTest, RejectsMalformedLines) {
  PageviewAggregator aggregator(1, "en", kJul1);
  add(aggregator, "pagecounts-20110701-000000",
      "en Page\nen Page notanumber 5\nen Page 5 notanumber\n"
      "en Page 5 5 extra\n Page 5 5\nen  5 5\nen Page -5 5\nen Ok 1 1\n");
  EXPECT_EQ(aggregator.malformed_lines(), 7u);
  EXPECT_EQ(aggregator.build_trace(100.0, 0.0, 1).file_count(), 1u);
}

TEST(DecodeHourStringTest, DecodesLetterValuePairs) {
  // B = hour 1, G = hour 6, X = hour 23: the day's views are their sum.
  const RequestTrace trace =
      read_one("pagecounts-2011-07", "en.z P 16 1:B12G3X1\n");
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 16.0);
}

TEST(DecodeHourStringTest, RejectsUnknownLetters) {
  PageviewAggregator aggregator(31, "en", kJul1);
  add(aggregator, "pagecounts-2011-07",
      "en.z P 104 1:Z99A5\nen.z P 5 1:a5\nen.z P 5 1:A5x\nen.z P 5 1:5\n"
      "en.z P 5 1:A\nen.z Ok 5 1:A5\n");
  EXPECT_EQ(aggregator.malformed_lines(), 5u);
  const RequestTrace trace = aggregator.build_trace(100.0, 0.0, 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_EQ(trace.file(0).name, "Ok");
}

TEST(DecodeHourStringTest, EmptyStringIsAllZero) {
  PageviewAggregator aggregator(31, "en", kJul1);
  add(aggregator, "pagecounts-2011-07", "en.z P 3 1:,2:A3\n");
  EXPECT_EQ(aggregator.malformed_lines(), 0u);
  const RequestTrace trace = aggregator.build_trace(100.0, 0.0, 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 1), 3.0);
}

TEST(PagecountsAggregatorTest, AggregatesHoursIntoDays) {
  PageviewAggregator aggregator(2, "en", kJul15);
  add(aggregator, "pagecounts-20110715-000000",
      "en Foo 5 100\nde Foo 100 100\n");
  add(aggregator, "pagecounts-20110715-050000", "en Foo 3 100\ngarbage\n");
  add(aggregator, "pagecounts-20110716-010000", "en Foo 7 100\n");
  add(aggregator, "pagecounts-20110718-000000", "en Foo 9 100\n");  // day 3

  EXPECT_EQ(aggregator.malformed_lines(), 1u);
  EXPECT_EQ(aggregator.lines_past_horizon(), 1u);
  const RequestTrace trace = aggregator.build_trace(100.0, 0.02, 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(trace.writes(0, 0), 8.0 * 0.02);
}

TEST(PagecountsAggregatorTest, EmptyProjectFilterKeepsAll) {
  PageviewAggregator aggregator(1, "", kJul1);
  add(aggregator, "pagecounts-20110701-000000", "en A 1 1\nde B 2 1\n");
  EXPECT_EQ(aggregator.build_trace(100.0, 0.0, 1).file_count(), 2u);
}

TEST(PagecountsAggregatorTest, DropsZeroViewTitles) {
  const RequestTrace trace = read_one("pagecounts-20110701-000000",
                                      "en Zero 0 1\nen NonZero 5 1\n", 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_EQ(trace.file(0).name, "NonZero");
}

TEST(PagecountsAggregatorTest, AddStreamProcessesAllLines) {
  const RequestTrace trace = read_one("pagecounts-20110701-000000",
                                      "en B 2 1\nen A 1 1\n\nen A 3 1\n", 1);
  ASSERT_EQ(trace.file_count(), 2u);
  // Deterministic (sorted) title order.
  EXPECT_EQ(trace.file(0).name, "A");
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 4.0);
}

TEST(PagecountsAggregatorTest, BuildTraceIsDeterministic) {
  PageviewAggregator aggregator(1, "en", kJul1);
  add(aggregator, "pagecounts-20110701-000000", "en A 1 1\nen B 2 1\n");
  const RequestTrace a = aggregator.build_trace(100.0, 0.02, 7);
  const RequestTrace b = aggregator.build_trace(100.0, 0.02, 7);
  ASSERT_EQ(a.file_count(), b.file_count());
  for (std::size_t i = 0; i < a.file_count(); ++i)
    EXPECT_EQ(a.file(static_cast<FileId>(i)).size_gb,
              b.file(static_cast<FileId>(i)).size_gb);
}

TEST(PagecountsAggregatorTest, RejectsZeroDays) {
  EXPECT_THROW(PageviewAggregator(0, "en", kJul1), std::invalid_argument);
}

TEST(PagecountsAggregatorTest, RejectsUnknownNames) {
  for (const char* name :
       {"pagecounts-00", "pagecounts-20110715-000000.gz",
        "pagecounts-2011-07-views.bz2", "pagecounts-20110715-240000",
        "pagecounts-20110231-000000", "pagecounts-2011-13", "pagecounts-201107",
        "pagecounts-2011-0712", "dump-20110715-000000", "notes.txt"}) {
    PageviewAggregator aggregator(31, "en", kJul1);
    EXPECT_THROW(add(aggregator, name, "en A 1 1\n"), std::invalid_argument)
        << name;
  }
}

TEST(PagecountsAggregatorTest, RejectsASecondFileForOneHourOrMonth) {
  PageviewAggregator aggregator(62, "en", kJul1);
  add(aggregator, "pagecounts-20110715-010000", "en A 1 1\n");
  EXPECT_THROW(add(aggregator, "pagecounts-20110715-015959", "en A 1 1\n"),
               std::invalid_argument);
  add(aggregator, "pagecounts-2011-07-views-ge-5", "en.z A 1 1:A1\n");
  EXPECT_THROW(add(aggregator, "pagecounts-2011-07-01", "en.z A 1 1:A1\n"),
               std::invalid_argument);
}

TEST(PagecountsAggregatorTest, RejectsAFileInWhichNoLineParses) {
  PageviewAggregator aggregator(31, "en", kJul1);
  // Each grammar's lines are malformed in the other's files.
  EXPECT_THROW(add(aggregator, "pagecounts-2011-07", "en A 5 1\n"),
               std::invalid_argument);
  EXPECT_THROW(add(aggregator, "pagecounts-20110701-000000",
                   "# header\n\nen.z A 5 1:A5\n"),
               std::invalid_argument);
  EXPECT_THROW(add(aggregator, "pagecounts-20110701-010000", ""),
               std::invalid_argument);
}

TEST(PagecountsAggregatorTest, RejectsAFileBeforeDayZero) {
  PageviewAggregator aggregator(31, "en", kJul15);
  EXPECT_THROW(add(aggregator, "pagecounts-2011-07", "en.z A 1 1:A1\n"),
               std::invalid_argument);
}

TEST(LoadPagecountsDirectoryTest, ThrowsOnEmptyDirectory) {
  const DumpDir dir("minicost_empty_pc", {});
  EXPECT_THROW(load_pagecounts_directory(dir.path, 1, "en"),
               std::runtime_error);
}

TEST(LoadPagecountsDirectoryTest, LoadsSortedHourFiles) {
  const DumpDir dir("minicost_pc_dir",
                    {{"pagecounts-20110715-000000", "en A 5 1\n"},
                     {"pagecounts-20110715-010000", "en A 2 1\n"}});
  const RequestTrace trace =
      load_pagecounts_directory(dir.path, 1, "en").build_trace(100.0, 0.0, 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 7.0);
}

TEST(LoadPagecountsDirectoryTest, MissingHoursLeaveLaterDaysInPlace) {
  // Day 0 is the earliest date named; no file covers Jul 16.
  const DumpDir dir("minicost_pc_gap",
                    {{"pagecounts-20110715-230000", "en A 5 1\n"},
                     {"pagecounts-20110717-000000", "en A 2 1\n"}});
  const RequestTrace trace =
      load_pagecounts_directory(dir.path, 3, "en").build_trace(100.0, 0.0, 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 2), 2.0);
}

TEST(LoadPagecountsDirectoryTest, MixedDirectorySumsBothGrammars) {
  const DumpDir dir("minicost_pc_mixed",
                    {{"pagecounts-2011-07", "en.z A 9 2:A4,3:B5\n"},
                     {"pagecounts-20110702-050000", "en A 10 1\nen B 1 1\n"}});
  const RequestTrace trace =
      load_pagecounts_directory(dir.path, 31, "en").build_trace(100.0, 0.0, 1);
  ASSERT_EQ(trace.file_count(), 2u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 1), 14.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(trace.reads(1, 1), 1.0);
}

TEST(LoadPagecountsDirectoryTest, EzProjectNameKeepsTheSameProject) {
  // "en.z" is how the ez grammar writes "en"; as --project it means "en".
  const DumpDir dir("minicost_pc_ez_project",
                    {{"pagecounts-2011-07", "en.z A 9 2:A4\nde.z A 1 2:A1\n"},
                     {"pagecounts-20110702-050000", "en A 10 1\n"}});
  const RequestTrace trace = load_pagecounts_directory(dir.path, 31, "en.z")
                                 .build_trace(100.0, 0.0, 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 1), 14.0);
}

TEST(LoadPagecountsDirectoryTest, ThrowsWhenNoLineIsForTheProject) {
  const DumpDir dir("minicost_pc_no_project",
                    {{"pagecounts-20110715-000000", "de A 5 1\n"}});
  try {
    (void)load_pagecounts_directory(dir.path, 1, "en");
    ADD_FAILURE() << "no error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("project 'en'"),
              std::string::npos)
        << error.what();
  }
}

TEST(LoadPagecountsDirectoryTest, ThrowsOnASubdirectory) {
  const DumpDir dir("minicost_pc_subdir",
                    {{"pagecounts-20110715-000000", "en A 5 1\n"}});
  std::filesystem::create_directory(dir.path / "2011-07");
  std::ofstream(dir.path / "2011-07" / "pagecounts-20110715-010000")
      << "en A 2 1\n";
  try {
    (void)load_pagecounts_directory(dir.path, 1, "en");
    ADD_FAILURE() << "no error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("2011-07 is not a regular file"),
              std::string::npos)
        << error.what();
  }
}

TEST(ParsePagecountsEzLineTest, ParsesMergedFormat) {
  const RequestTrace trace = read_one("pagecounts-2011-07-views-ge-5",
                                      "en.z Main_Page 314 1:A5B7,2:C9,31:X3\n");
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_EQ(trace.file(0).name, "Main_Page");
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 1), 9.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 30), 3.0);
}

TEST(ParsePagecountsEzLineTest, RejectsMalformed) {
  PageviewAggregator aggregator(31, "en", kJul1);
  add(aggregator, "pagecounts-2011-07",
      "en.z Page 314\nen.z Page notnum 1:A5\nen.z Page 1 x 5\n"
      "en.z Page 1 1:A5,\nen.z Ok 1 1:A1\n");
  EXPECT_EQ(aggregator.malformed_lines(), 4u);
}

TEST(ParsePagecountsEzLineTest, RejectsBadDayEntries) {
  // A bad entry (no colon, no day, day 0, day 32 of July) rejects its whole
  // line rather than dropping part of it.
  PageviewAggregator aggregator(31, "en", kJul1);
  add(aggregator, "pagecounts-2011-07",
      "en.z P 10 bogus,2:B4\nen.z P 1 2:B4,:A1\nen.z P 1 0:A1\n"
      "en.z P 1 32:A1\nen.z Ok 1 31:A1\n");
  EXPECT_EQ(aggregator.malformed_lines(), 4u);
  const RequestTrace trace = aggregator.build_trace(100.0, 0.0, 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_EQ(trace.file(0).name, "Ok");
}

TEST(PagecountsEzReaderTest, AccumulatesAcrossMonths) {
  PageviewAggregator aggregator(62, "en", kJul1);
  add(aggregator, "pagecounts-2011-07",
      "en.z A 10 1:A5,3:B5\nde.z A 99 1:A99\ngarbage\n");
  add(aggregator, "pagecounts-2011-08", "en.z A 7 1:C7\n");  // day 31
  EXPECT_EQ(aggregator.malformed_lines(), 1u);

  const RequestTrace trace = aggregator.build_trace(100.0, 0.02, 3);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 31), 7.0);
  EXPECT_DOUBLE_EQ(trace.reads(0, 1), 0.0);
}

TEST(PagecountsEzReaderTest, StreamSkipsComments) {
  PageviewAggregator aggregator(31, "en", kJul1);
  add(aggregator, "pagecounts-2011-07", "# header\n\nen.z A 5 1:A5\n");
  EXPECT_EQ(aggregator.malformed_lines(), 0u);
  EXPECT_EQ(aggregator.build_trace(100.0, 0.0, 1).file_count(), 1u);
}

TEST(PagecountsEzReaderTest, DaysBeyondHorizonIgnored) {
  PageviewAggregator aggregator(5, "en", kJul1);
  add(aggregator, "pagecounts-2011-07", "en.z A 9 1:A4,20:B5\nen.z B 1 9:A1\n");
  EXPECT_EQ(aggregator.lines_past_horizon(), 2u);
  const RequestTrace trace = aggregator.build_trace(100.0, 0.0, 1);
  ASSERT_EQ(trace.file_count(), 1u);
  EXPECT_DOUBLE_EQ(trace.reads(0, 0), 4.0);
}

}  // namespace
}  // namespace minicost::trace
