#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "eval/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What one unit produced through the public path: the result object and
/// the CSV sink's text for it.
struct UnitOutput {
  qolsr::ExperimentResult result;
  std::string csv;
};

/// One unit end to end: run_experiment + make_result_sink("csv") — the
/// qolsr_eval path minus argv parsing. Throws whatever the engine throws.
UnitOutput run_unit(const qolsr::ExperimentSpec& spec);

/// FNV-1a digest of the CSV's deterministic columns: every column except
/// the wall-clock ones a wire run may carry (convergence_time_*).
std::uint64_t csv_digest(const std::string& csv, qolsr::BackendId backend);

/// Reference digests of one deck of the pinned seed, index = unit index.
/// Lines read "<index> <16 hex digits>"; a missing file is an error.
std::vector<std::uint64_t> load_pins(const std::string& path,
                                     std::size_t deck);

/// The correctness gate of one unit. Returns "" when the unit passes, else
/// the first failed check. On the pinned seed the CSV digest must equal
/// the pin; on every seed the invariants the equivalence suites assert
/// must hold (packet and wire set sizes equal the oracle's on the same
/// deployment, probe/traffic fates sum to the failure counts, and no
/// unconverged run where no traffic spec is active — the scope in which
/// the suites assert convergence).
std::string check_unit(const Workload& workload, std::uint64_t seed,
                       std::size_t index, const qolsr::ExperimentSpec& spec,
                       const UnitOutput& out,
                       const std::vector<std::uint64_t>& pins);

// ---- wire hygiene (read from /proc and the temp directory) -------------

/// Live (or unreaped) child processes of this process.
std::vector<int> child_pids();

/// Peak resident set of process `pid` in KiB (VmHWM), 0 if unreadable.
long peak_rss_kb(int pid);

/// Wire-harness socket directories (/tmp/qolsr_wire_*).
std::size_t wire_socket_dirs();

}  // namespace perfbench
