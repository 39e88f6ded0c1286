#include "reference.h"

#include <algorithm>
#include <thread>

#include "trace.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kAgents = 20'000;
constexpr std::int64_t kWarmupSteps = 4'000'000;

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

ReferenceLoop::ReferenceLoop() : agents_(kAgents) {
  const double weights[8] = {1, 1, 2, 2, 4, 4, 8, 8};
  for (int c = 0; c < 8; ++c)
    fade_below_[c] = static_cast<std::uint64_t>(0x1p64 / weights[c] - 1.0);
  for (std::uint64_t i = 0; i < kAgents; ++i)
    agents_[i] = static_cast<std::uint8_t>(((i % 8) << 1) | (i % 3 == 0));
  // A fixed seed: the loop does the same work in every run.
  std::uint64_t seed = 0x5eed;
  for (std::uint64_t& word : state_) {
    seed += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = seed;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    word = z ^ (z >> 31);
  }
  run(kWarmupSteps);
}

std::uint64_t ReferenceLoop::next() {  // xoshiro256**
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

void ReferenceLoop::run(std::int64_t steps) {
  for (std::int64_t k = 0; k < steps; ++k) {
    const std::uint64_t r = next();
    const std::uint64_t u = ((r & 0xffffffffULL) * kAgents) >> 32;
    const std::uint64_t v = ((r >> 32) * kAgents) >> 32;
    const std::uint8_t initiator = agents_[u];
    const std::uint8_t responder = agents_[v];
    if ((initiator & 1) == 0) {
      if (responder & 1) agents_[u] = responder;  // adopt
    } else if ((responder & 1) && (initiator >> 1) == (responder >> 1) &&
               next() < fade_below_[initiator >> 1]) {
      agents_[u] = initiator & 0xfe;  // fade
    }
  }
}

double ReferenceLoop::time_steps(std::int64_t steps) {
  const std::int64_t start = thread_cpu_ns();
  run(steps);
  return static_cast<double>(thread_cpu_ns() - start) /
         static_cast<double>(steps);
}

double reference_ns_per_step(std::vector<ReferenceLoop>& loops,
                             std::int64_t steps) {
  std::vector<double> ns(loops.size());
  std::vector<std::thread> pool;
  for (std::size_t i = 1; i < loops.size(); ++i)
    pool.emplace_back([&, i] { ns[i] = loops[i].time_steps(steps); });
  ns[0] = loops[0].time_steps(steps);
  for (std::thread& thread : pool) thread.join();
  double total = 0.0;
  for (const double v : ns) total += v;
  return total / static_cast<double>(ns.size());
}

std::vector<double> sliding_median(const std::vector<double>& samples,
                                   std::size_t half) {
  std::vector<double> out(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::size_t lo = i > half ? i - half : 0;
    const std::size_t hi = std::min(samples.size(), i + half + 1);
    out[i] = quantile({samples.begin() + static_cast<std::ptrdiff_t>(lo),
                       samples.begin() + static_cast<std::ptrdiff_t>(hi)},
                      0.5);
  }
  return out;
}

}  // namespace perfbench
