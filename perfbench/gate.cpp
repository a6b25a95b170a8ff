#include "gate.hpp"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "eval/result_sink.hpp"

namespace perfbench {

using qolsr::BackendId;
using qolsr::DensityStats;
using qolsr::ExperimentSpec;
using qolsr::ProtocolStats;

UnitOutput run_unit(const ExperimentSpec& spec) {
  UnitOutput out;
  out.result = qolsr::run_experiment(spec);
  std::ostringstream os;
  qolsr::make_result_sink(spec.format)->write(out.result, os);
  out.csv = std::move(os).str();
  return out;
}

namespace {

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, sep)) cells.push_back(cell);
  return cells;
}

void fnv(std::uint64_t& h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::uint64_t csv_digest(const std::string& csv, BackendId backend) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::istringstream in(csv);
  std::string line;
  std::vector<bool> keep;
  while (std::getline(in, line)) {
    const std::vector<std::string> cells = split(line, ',');
    // A header row (re)defines which columns are hashed; the wire
    // backend's convergence times are wall-clock seconds.
    if (!cells.empty() && cells[0] == "metric") {
      keep.assign(cells.size(), true);
      if (backend == BackendId::kWire)
        for (std::size_t c = 0; c < cells.size(); ++c)
          keep[c] = cells[c].rfind("convergence_time", 0) != 0;
    }
    for (std::size_t c = 0; c < cells.size(); ++c)
      if (c >= keep.size() || keep[c]) fnv(h, cells[c] + ",");
    fnv(h, "\n");
  }
  return h;
}

std::vector<std::uint64_t> load_pins(const std::string& path,
                                     std::size_t deck) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference digests " + path);
  std::vector<std::uint64_t> pins(deck, 0);
  std::vector<bool> seen(deck, false);
  std::size_t index = 0;
  std::string digest;
  while (in >> index >> digest) {
    if (index >= deck)
      throw std::runtime_error(path + ": unit index out of the deck");
    pins[index] = std::stoull(digest, nullptr, 16);
    seen[index] = true;
  }
  for (std::size_t i = 0; i < deck; ++i)
    if (!seen[i])
      throw std::runtime_error(path + ": no digest for unit " +
                               std::to_string(i));
  return pins;
}

namespace {

/// The oracle backend on the same deployment: identical scenario, seed
/// and selectors, density axis at the density the unit ran at.
ExperimentSpec oracle_twin(const ExperimentSpec& spec) {
  ExperimentSpec oracle = spec;
  oracle.backend = BackendId::kOracle;
  if (spec.scenario.sweep_axis != qolsr::Scenario::SweepAxis::kDensity) {
    oracle.scenario.densities = {spec.scenario.field.degree};
    oracle.scenario.sweep_axis = qolsr::Scenario::SweepAxis::kDensity;
  }
  oracle.scenario.traffic = {};
  oracle.scenario.faults = {};
  return oracle;
}

std::string check_invariants(const ExperimentSpec& spec,
                             const qolsr::ExperimentResult& result) {
  if (result.sweep.size() != 1) return "expected one sweep point";
  const DensityStats& d = result.sweep.front();
  if (d.protocols.size() != spec.selectors.size())
    return "expected one row per selector";
  if (!(d.node_count.mean() >= 2.0)) return "degenerate deployment";
  for (const ProtocolStats& p : d.protocols) {
    const std::string who = " (" + p.name + ")";
    if (!std::isfinite(p.set_size.mean()) || p.set_size.mean() < 0.0)
      return "set size out of range" + who;
    if (spec.backend == BackendId::kOracle) {
      if (p.delivered + p.failed != 1) return "oracle probe count" + who;
      if (p.delivered == 1 &&
          !(p.overhead.mean() >= 0.0 && p.overhead.mean() <= 1.0))
        return "oracle overhead out of [0, 1]" + who;
      continue;
    }
    // The suites assert convergence for traffic-free runs only; under an
    // active traffic spec the count is output (pinned, and reported).
    if (p.control.unconverged != 0 && !spec.scenario.traffic.active())
      return "unconverged run" + who;
    if (spec.backend == BackendId::kPacket) {
      if (p.no_route_losses + p.loop_losses + p.medium_losses != p.failed)
        return "probe fates do not sum to failed probes" + who;
      const qolsr::TrafficStats& t = p.traffic;
      if (t.queue_drops + t.no_route_drops + t.loop_drops + t.medium_drops !=
          t.offered - t.delivered)
        return "traffic fates do not sum to undelivered packets" + who;
    }
  }
  if (spec.backend == BackendId::kOracle) return "";
  // Converged set sizes equal the oracle's on the same deployment.
  const qolsr::ExperimentResult oracle = qolsr::run_experiment(
      oracle_twin(spec));
  const DensityStats& o = oracle.sweep.front();
  for (std::size_t i = 0; i < d.protocols.size(); ++i)
    if (d.protocols[i].set_size.mean() != o.protocols[i].set_size.mean())
      return "set size differs from the oracle's (" + d.protocols[i].name +
             ")";
  return "";
}

}  // namespace

std::string check_unit(const Workload& workload, std::uint64_t seed,
                       std::size_t index, const ExperimentSpec& spec,
                       const UnitOutput& out,
                       const std::vector<std::uint64_t>& pins) {
  if (seed == kPinnedSeed && !pins.empty()) {
    const std::uint64_t got = csv_digest(out.csv, spec.backend);
    const std::uint64_t want = pins[index % workload.deck];
    if (got != want)
      return "CSV digest " + hex(got) + " differs from the pinned " +
             hex(want);
  }
  return check_invariants(spec, out.result);
}

std::vector<int> child_pids() {
  std::vector<int> out;
  const int self = static_cast<int>(::getpid());
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") !=
                            std::string::npos)
      continue;
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    if (!std::getline(stat, line)) continue;
    // pid (comm) state ppid ...: comm may hold spaces, so parse after ')'.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 1));
    std::string state;
    int ppid = 0;
    if (rest >> state >> ppid && ppid == self) out.push_back(std::stoi(name));
  }
  return out;
}

long peak_rss_kb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      status >> kb;
      return kb;
    }
    status.ignore(4096, '\n');
  }
  return 0;
}

std::size_t wire_socket_dirs() {
  std::size_t count = 0;
  std::error_code ec;
  // The harness creates them under /tmp itself (mkdtemp), not $TMPDIR.
  for (const auto& entry : std::filesystem::directory_iterator("/tmp", ec))
    if (entry.path().filename().string().rfind("qolsr_wire_", 0) == 0)
      ++count;
  return count;
}

}  // namespace perfbench
