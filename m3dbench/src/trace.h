// Outside-in span tracing for the benchmark driver.
//
// Spans are recorded in the driver's own code, around calls into the
// library's public functions; the library itself is not instrumented.  A
// span holds its name, start and end (microseconds since the tracer was
// created), the span that was open when it began (its parent), and the id
// of the request it belongs to.  Spans stay in memory and are written out
// once, when the run ends.  A disabled tracer records nothing, so the
// untraced run pays one branch per span site.
//
// The tracer is single-threaded: only the submitting thread records spans.
#ifndef M3DBENCH_TRACE_H_
#define M3DBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace m3dbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root span
  std::uint64_t request = 0;
  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  // The traced run alternates recorded and unrecorded passes to measure
  // the tracing overhead; toggle only between passes, with no span open.
  void set_recording(bool on) { recording_ = on; }
  // Opens a span under the innermost open one; returns its index, or -1
  // when tracing is off.
  int begin(std::string_view name, std::uint64_t request);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations (microseconds) of every closed span called `name`.
  std::vector<double> durations_us(std::string_view name) const;
  // Writes every span as one JSON object per line, followed by one summary
  // line per span name: count, total and self time (duration minus the
  // part of its interval covered by child spans).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  bool recording_ = true;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(name, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace m3dbench

#endif  // M3DBENCH_TRACE_H_
