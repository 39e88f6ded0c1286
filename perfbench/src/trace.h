#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/// \file trace.h
/// In-memory span and count recorder for the benchmark's traced runs.
///
/// Spans are recorded by the benchmark around its calls into each
/// library layer: name, start, end, the enclosing span and a per-window
/// or per-scenario id.  Counts are added at the same boundaries.  Both
/// stay in memory until write() at the end of the run, so recording
/// costs two clock reads and a vector append per span.  A disabled
/// trace (untraced runs) records nothing.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// steady_clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Seconds elapsed since `start_ns` (a now_ns() reading).
[[nodiscard]] double seconds_since(std::int64_t start_ns) noexcept;

/// CPU time of the calling thread, in nanoseconds.  Unlike now_ns() it
/// stops while the thread waits for a core, whether another process or
/// the hypervisor holds it, so on a shared host it reads the program's
/// own cost rather than the scheduler's.
[[nodiscard]] std::int64_t thread_cpu_ns() noexcept;

/// CPU time of every thread of this process, in nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns() noexcept;

/// One closed span.  `parent` indexes the enclosing span, or is -1.
struct Span {
  std::int32_t name = 0;
  std::int32_t parent = -1;
  std::int64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.  Children may
/// overlap each other or stick out of the parent; only the covered part
/// of the parent's own interval is subtracted.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open span; returns a handle for
  /// close(), or -1 when the trace is disabled.
  int open(std::string_view name, std::int64_t id);
  void close(int handle);

  /// Records an already-timed leaf span under the innermost open span.
  void record(std::string_view name, std::int64_t id, std::int64_t start_ns,
              std::int64_t end_ns);

  /// Adds `delta` to the named count.
  void count(std::string_view name, double delta);
  [[nodiscard]] double counter(std::string_view name) const;

  /// Time spent inside open, close, record and count so far: what the
  /// trace adds to a run, since no span is recorded inside a timed call.
  [[nodiscard]] std::int64_t recording_ns() const noexcept {
    return recording_ns_;
  }

  /// Durations and self times (ns) of the spans named `name`, in
  /// recording order.
  [[nodiscard]] std::vector<double> durations_ns(std::string_view name) const;
  [[nodiscard]] std::vector<double> self_ns(std::string_view name) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Writes every span as a TSV row (name, id, parent, start, end, self)
  /// followed by one "# count" line per count.
  /// \throws std::runtime_error when the file cannot be written.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::int32_t intern(std::string_view name);
  [[nodiscard]] std::int32_t find(std::string_view name) const;

  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< handles of the open spans, innermost last
  std::map<std::string, double, std::less<>> counts_;
  std::int64_t recording_ns_ = 0;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(Trace& trace, std::string_view name, std::int64_t id)
      : trace_(trace), handle_(trace.open(name, id)) {}
  ~Scope() { trace_.close(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Trace& trace_;
  int handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
