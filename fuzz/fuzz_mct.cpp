// Fuzz target: the `.mct` container decoder. Input bytes are staged as a
// file and opened with TraceReader; a file that validates is then walked
// end to end (names, groups, checksums, materialization). The
// contract under test: arbitrary bytes either open cleanly or raise a
// std::exception — never a wild read, an overflowing offset computation, or
// an unbounded allocation (ASan/UBSan police the first two; the day/group
// caps and the decode-work cap below bound the third). Every
// materialization also runs on a 2-thread pool, which must return the same
// bytes or throw the same exception type as the serial read; the target
// aborts when it does not.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "fuzz_input_file.hpp"
#include "store/trace_reader.hpp"
#include "util/thread_pool.hpp"

namespace {

using minicost::trace::RequestTrace;

bool same_doubles(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_trace(const RequestTrace& a, const RequestTrace& b) {
  if (a.days() != b.days() || a.file_count() != b.file_count() ||
      a.groups().size() != b.groups().size())
    return false;
  for (std::size_t i = 0; i < a.file_count(); ++i) {
    const auto& x = a.files()[i];
    const auto& y = b.files()[i];
    if (x.name != y.name ||
        std::memcmp(&x.size_gb, &y.size_gb, sizeof x.size_gb) != 0 ||
        !same_doubles(x.reads, y.reads) || !same_doubles(x.writes, y.writes))
      return false;
  }
  for (std::size_t g = 0; g < a.groups().size(); ++g)
    if (a.groups()[g].members != b.groups()[g].members ||
        !same_doubles(a.groups()[g].concurrent_reads,
                      b.groups()[g].concurrent_reads))
      return false;
  return true;
}

/// A read's outcome: the trace, or the type of what it threw.
struct ReadOutcome {
  std::optional<RequestTrace> trace;
  std::string error_type;
};

ReadOutcome read_shard(const minicost::store::TraceReader& reader,
                       std::size_t first, std::size_t count,
                       minicost::util::ThreadPool* pool) {
  try {
    return {reader.materialize_shard(first, count, pool), ""};
  } catch (const std::exception& error) {
    return {std::nullopt, typeid(error).name()};
  }
}

/// Materializes files [first, first + count) serially and on the pool;
/// aborts if the two disagree.
void check_pooled_read(const minicost::store::TraceReader& reader,
                       std::size_t first, std::size_t count) {
  static minicost::util::ThreadPool pool(2);
  const ReadOutcome serial = read_shard(reader, first, count, nullptr);
  const ReadOutcome pooled = read_shard(reader, first, count, &pool);
  if (serial.error_type != pooled.error_type ||
      serial.trace.has_value() != pooled.trace.has_value() ||
      (serial.trace && !same_trace(*serial.trace, *pooled.trace)))
    std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const auto& path = minicost::fuzz::stage_input(data, size, "mct");
  try {
    const minicost::store::TraceReader reader(path);
    const std::size_t files = reader.file_count();
    // v2 chunks compress, so a kilobyte input can legitimately *declare* a
    // frequency section that decodes to gigabytes (one 1-byte all-zeros
    // delta chunk per 2^20 files). Decoding is O(declared), not O(input):
    // decode the frequency data only when the decoded section is small, so
    // the fuzzer probes the decoder instead of timing out in memset.
    const bool small_freq = reader.freq_raw_bytes() <= (1u << 20);
    for (std::size_t i = 0; i < files; ++i) {
      (void)reader.name(i);
      (void)reader.size_gb(i);
    }
    for (std::size_t g = 0; g < reader.group_count(); ++g)
      (void)reader.group(g);
    for (const auto& chunk : reader.chunk_table()) (void)chunk.codec_id;
    // Materialize only plausibly-small traces so the fuzzer spends its time
    // in the decoder, not in copying a legitimately huge container. The
    // reads come before verify_checksums(), so corrupt chunks reach them.
    if (small_freq && files <= 64 && reader.days() <= 64) {
      check_pooled_read(reader, 0, files);
      if (files >= 2) check_pooled_read(reader, 1, files - 1);
    }
    if (small_freq) reader.verify_checksums();
  } catch (const std::exception&) {
    // Structured rejection is the expected path for malformed inputs.
  }
  return 0;
}
