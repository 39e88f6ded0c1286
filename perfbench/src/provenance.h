#ifndef PERFBENCH_PROVENANCE_H
#define PERFBENCH_PROVENANCE_H

/// \file provenance.h
/// What produced a result: commit, compiler, flags, build type, the
/// library's compile switches, CPU model and CPU count.  Timings from a
/// Debug, unoptimised, sanitizer or SIM_CHECKED build are refused.

#include <string>

#include "io/json.h"

namespace perfbench {

struct Provenance {
  std::string commit;         ///< git commit, or "none" outside git
  std::string source_digest;  ///< SHA-256 prefix over src/ and perfbench/
  std::string compiler;
  std::string flags;
  std::string build_type;
  bool sim_checked = false;
  bool divpp_faults = false;
  bool optimized = false;
  bool sanitized = false;
  std::string cpu_model;
  int nproc = 1;
};

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int available_cpus();

[[nodiscard]] Provenance collect_provenance(const std::string& commit,
                                            const std::string& source_digest);

/// Why timings from this build must not be reported; empty when they
/// may.
[[nodiscard]] std::string refusal_reason(const Provenance& provenance);

[[nodiscard]] divpp::io::Json to_json(const Provenance& provenance);

}  // namespace perfbench

#endif  // PERFBENCH_PROVENANCE_H
