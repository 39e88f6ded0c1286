#include "provenance.h"

#include <sched.h>

#include <fstream>
#include <string>

namespace perfbench {
namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t begin = colon + 1;
    while (begin < line.size() && line[begin] == ' ') ++begin;
    return line.substr(begin);
  }
  return "unknown";
}

}  // namespace

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? count : 1;
}

Provenance collect_provenance(const std::string& commit,
                              const std::string& source_digest) {
  Provenance p;
  p.commit = commit;
  p.source_digest = source_digest;
  p.compiler = PERFBENCH_COMPILER;
  p.flags = PERFBENCH_FLAGS;
  p.build_type = PERFBENCH_BUILD_TYPE;
#ifdef SIM_CHECKED
  p.sim_checked = true;
#endif
#ifdef DIVPP_FAULTS
  p.divpp_faults = true;
#endif
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  p.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  p.sanitized = true;
#endif
  if (p.flags.find("-fsanitize") != std::string::npos) p.sanitized = true;
  p.cpu_model = cpu_model();
  p.nproc = available_cpus();
  return p;
}

std::string refusal_reason(const Provenance& p) {
  if (p.sim_checked) return "SIM_CHECKED build";
  if (p.sanitized) return "sanitizer build";
  if (p.build_type == "Debug" || !p.optimized)
    return "Debug or unoptimised build (" + p.build_type + ")";
  return {};
}

divpp::io::Json to_json(const Provenance& p) {
  divpp::io::Json json;
  json.set("commit", p.commit)
      .set("source_digest", p.source_digest)
      .set("compiler", p.compiler)
      .set("flags", p.flags)
      .set("build_type", p.build_type)
      .set("SIM_CHECKED", p.sim_checked)
      .set("DIVPP_FAULTS", p.divpp_faults)
      .set("cpu_model", p.cpu_model)
      .set("nproc", p.nproc);
  return json;
}

}  // namespace perfbench
