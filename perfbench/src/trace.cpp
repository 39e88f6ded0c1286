#include "trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

namespace {

std::int64_t clock_ns(clockid_t clock) noexcept {
  timespec t{};
  ::clock_gettime(clock, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

}  // namespace

std::int64_t thread_cpu_ns() noexcept {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t process_cpu_ns() noexcept {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    if (static_cast<std::size_t>(span.parent) >= spans.size())
      throw std::invalid_argument("self_times_ns: parent out of range");
    children[static_cast<std::size_t>(span.parent)].emplace_back(
        span.start_ns, span.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;  // covered up to here
    for (const auto& [start, end] : kids) {
      const std::int64_t lo = std::max(start, reach);
      const std::int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, span.end_ns));
    }
    self[i] = (span.end_ns - span.start_ns) - covered;
  }
  return self;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

/// Adds the lifetime of one recording call to the trace's own cost.
class RecordingCost {
 public:
  explicit RecordingCost(std::int64_t& total) : total_(total) {}
  ~RecordingCost() { total_ += now_ns() - start_; }
  RecordingCost(const RecordingCost&) = delete;
  RecordingCost& operator=(const RecordingCost&) = delete;

 private:
  std::int64_t& total_;
  std::int64_t start_ = now_ns();
};

}  // namespace

std::int32_t Trace::intern(std::string_view name) {
  const std::int32_t found = find(name);
  if (found >= 0) return found;
  names_.emplace_back(name);
  return static_cast<std::int32_t>(names_.size() - 1);
}

std::int32_t Trace::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::int32_t>(i);
  return -1;
}

int Trace::open(std::string_view name, std::int64_t id) {
  if (!enabled_) return -1;
  const RecordingCost cost(recording_ns_);
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int handle = static_cast<int>(spans_.size() - 1);
  open_.push_back(handle);
  return handle;
}

void Trace::close(int handle) {
  if (handle < 0) return;
  const RecordingCost cost(recording_ns_);
  if (open_.empty() || open_.back() != handle)
    throw std::logic_error("Trace::close: spans must close innermost first");
  open_.pop_back();
  spans_[static_cast<std::size_t>(handle)].end_ns = now_ns();
}

void Trace::record(std::string_view name, std::int64_t id,
                   std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  const RecordingCost cost(recording_ns_);
  Span span;
  span.name = intern(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

void Trace::count(std::string_view name, double delta) {
  if (!enabled_) return;
  const RecordingCost cost(recording_ns_);
  auto it = counts_.find(name);
  if (it == counts_.end()) it = counts_.emplace(std::string(name), 0.0).first;
  it->second += delta;
}

double Trace::counter(std::string_view name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

std::vector<double> Trace::durations_ns(std::string_view name) const {
  std::vector<double> out;
  const std::int32_t id = find(name);
  for (const Span& span : spans_)
    if (span.name == id)
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
  return out;
}

std::vector<double> Trace::self_ns(std::string_view name) const {
  std::vector<double> out;
  const std::int32_t id = find(name);
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].name == id) out.push_back(static_cast<double>(self[i]));
  return out;
}

void Trace::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("Trace: cannot write " + path);
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  out << "name\tid\tparent\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << names_[static_cast<std::size_t>(span.name)] << '\t' << span.id
        << '\t' << span.parent << '\t' << span.start_ns << '\t'
        << span.end_ns << '\t' << self[i] << '\n';
  }
  for (const auto& [name, value] : counts_)
    out << "# count\t" << name << '\t' << value << '\n';
  if (!out) throw std::runtime_error("Trace: write failed for " + path);
}

}  // namespace perfbench
