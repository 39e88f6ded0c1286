#include "workloads.h"

#include <fstream>
#include <string>

#include "rng/xoshiro.h"

namespace perfbench {

void Result::fail(const std::string& message) {
  ++failed;
  constexpr std::size_t kKeptMessages = 5;
  if (failures.size() < kKeptMessages) failures.push_back(message);
}

divpp::core::WeightMap default_palette() {
  return divpp::core::WeightMap({1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0});
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
  (void)divpp::rng::splitmix64_next(state);
  return divpp::rng::splitmix64_next(state);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's peak when that one was larger.
  double kib = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) kib = std::stod(line.substr(6));
  return kib / 1024.0;
}

}  // namespace perfbench
