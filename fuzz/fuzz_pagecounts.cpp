// Fuzz target: the pagecounts dump reader (trace/pagecounts_parser.hpp).
// The first byte generates the file's name, and with it the line grammar:
// bit 0 picks a pagecounts-ez month of 2012 over a classic hour of
// 2012-01-01, bits 1-6 pick which month or hour, and bit 7 clears the
// project filter. The remaining bytes are the file. Every input must
// either be read into a trace that passes validate(), its skipped lines
// counted, or raise a std::exception: a file in which no line parses is
// refused with a message, and that is the contract.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <sstream>
#include <string>

#include "trace/pagecounts_parser.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace std::chrono;
  if (size == 0) return 0;
  const unsigned pick = data[0];
  const unsigned slot = (pick >> 1) & 0x3Fu;
  const auto two_digits = [](unsigned n) {
    return (n < 10 ? "0" : "") + std::to_string(n);
  };
  const std::string name =
      (pick & 1u) != 0
          ? "pagecounts-2012-" + two_digits(1 + slot % 12)
          : "pagecounts-20120101-" + two_digits(slot % 24) + "0000";
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data + 1), size - 1));
  // 62 days: all of January and February, two days of March.
  minicost::trace::PageviewAggregator aggregator(
      62, (pick & 0x80u) != 0 ? "" : "en", sys_days{2012y / January / 1});
  try {
    aggregator.add_file(name, in);
    (void)aggregator.build_trace(100.0, 0.02, 1);
  } catch (const std::exception&) {
    // A refused file rejects with a message; that is the contract.
  }
  return 0;
}
