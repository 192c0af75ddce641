#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start);

/// In-memory span recorder for the traced run. Spans nest per thread (the
/// innermost open span on a thread is the parent of the next one), are
/// aggregated by name as they close, and the first kMaxKeptSpans of them are
/// kept verbatim for the Chrome trace-event file written at exit.
class Tracer {
 public:
  static constexpr size_t kMaxKeptSpans = 200000;

  struct Totals {
    uint64_t count = 0;
    double seconds = 0;
  };

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Count and summed duration of every closed span called `name`.
  Totals Get(const std::string& name) const;
  /// Every duration (microseconds) of spans called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes the kept spans as Chrome trace-event JSON. Returns false when
  /// the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  friend class Span;
  struct Record {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t tid;
    double begin_us;
    double dur_us;
  };
  uint64_t NextId();
  void Close(const Record& record);

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::map<std::string, Totals> totals_;
  std::map<std::string, std::vector<double>> durations_;
  std::vector<Record> kept_;
  uint64_t dropped_ = 0;
  std::atomic<uint64_t> next_id_{0};
};

/// RAII span: records [construction, destruction) under `name` when
/// `tracer` is non-null; a null tracer makes it a no-op, which is how the
/// untraced runs share code with the traced one. `name` must outlive the
/// tracer (string literals).
class Span {
 public:
  Span(Tracer* tracer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  Clock::time_point begin_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
