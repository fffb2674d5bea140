#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded around calls into the library's public layer entry
// points (the benchmark adds no tracing inside the program). Every layer
// call is made from the benchmark's main thread — parallelism happens inside
// the calls — so the recorder is single-threaded: a stack gives each span its
// parent, and `op` tags every span with the operation (plan or request) that
// caused it. Spans stay in memory until the run ends.
//
// A span's self time is its duration minus the time its child spans cover.
// Spans named "bench.*" are the benchmark's own verification work: they are
// reported apart and subtracted from the operation wall, never counted as
// program time.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";    ///< static string literal
  std::int64_t parent = -1;  ///< index of the enclosing span; -1 = none
  std::uint64_t op = 0;      ///< operation the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// A disabled tracer records nothing; its scopes cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  void set_op(std::uint64_t op) noexcept { op_ = op; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// One JSON object per line: name, parent, op, start and end (ns, relative
  /// to the first span).
  void write_jsonl(std::ostream& out) const {
    const std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& s : spans_)
      out << "{\"name\":\"" << s.name << "\",\"parent\":" << s.parent
          << ",\"op\":" << s.op << ",\"start_ns\":" << s.start_ns - base
          << ",\"end_ns\":" << s.end_ns - base << "}\n";
  }

 private:
  std::size_t open(const char* name) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({name, parent, op_, now_ns(), 0});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  bool enabled_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

}  // namespace perfbench
