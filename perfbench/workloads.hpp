#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "eval/experiment.hpp"

namespace perfbench {

/// One named benchmark workload: a canned ExperimentSpec shape whose units
/// (one `run_experiment` call with runs = 1 at one sweep point) are drawn
/// from the workload seed. Unit `i` of seed `s` is always the same
/// deployment, so per-unit percentiles compare across runs and commits.
struct Workload {
  std::string_view name;  ///< BENCHMARK.json records why each was chosen
  /// The BENCH_sweep.json point this workload supersedes ("new" if none).
  std::string_view supersedes;
  /// Distinct units per seed: unit indices cycle modulo the deck, and the
  /// pinned reference digests cover exactly one deck of the pinned seed.
  std::size_t deck = 0;
  /// Fixed tail percentile reported as unit_ms_tail, chosen so at least
  /// ten units lie beyond it at this workload's unit count on a 4-core
  /// host (stated with the count in every report).
  double tail_percentile = 0.9;
  /// Sweep-point values cycled over the unit index.
  std::vector<double> points;
  /// Every spec field except the per-unit seed and sweep point.
  qolsr::ExperimentSpec shape;
};

/// The seed the reference digests in golden/<workload>.txt were pinned at.
inline constexpr std::uint64_t kPinnedSeed = 1;

const std::vector<Workload>& workloads();

/// nullptr for an unknown name.
const Workload* find_workload(std::string_view name);

/// The spec of unit `index` (taken modulo the deck) of `workload` at
/// `seed`: runs = 1, threads = 1, csv output, one sweep point.
qolsr::ExperimentSpec unit_spec(const Workload& workload, std::uint64_t seed,
                                std::size_t index);

}  // namespace perfbench
