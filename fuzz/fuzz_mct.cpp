// Fuzz target: the `.mct` container decoder. Input bytes are staged as a
// file and opened with TraceReader; a file that validates is then walked
// end to end (names, groups, checksums, materialization). The
// contract under test: arbitrary bytes either open cleanly or raise a
// std::exception — never a wild read, an overflowing offset computation, or
// an unbounded allocation (ASan/UBSan police the first two; the day/group
// caps and the decode-work cap below bound the third).
#include <cstddef>
#include <cstdint>
#include <exception>

#include "fuzz_input_file.hpp"
#include "store/trace_reader.hpp"

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
    if (small_freq) reader.verify_checksums();
    // Materialize only plausibly-small traces so the fuzzer spends its time
    // in the decoder, not in copying a legitimately huge container.
    if (small_freq && files <= 64 && reader.days() <= 64) {
      (void)reader.materialize();
      if (files >= 2) (void)reader.materialize_shard(1, files - 1);
    }
  } catch (const std::exception&) {
    // Structured rejection is the expected path for malformed inputs.
  }
  return 0;
}
