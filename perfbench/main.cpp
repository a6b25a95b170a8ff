// perfbench — the repository benchmark. One process, one client
// thread in a closed loop: each unit (one run_experiment call, runs = 1,
// at one sweep point, then the CSV sink) starts when the previous one has
// finished and passed the correctness gate.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --golden FILE --metrics A,B,... [--commit ID] [--spans FILE]
//   perfbench --workload NAME --pin          # print reference digests
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs every unit untraced and then through the traced per-layer replica
// (replica.hpp), checks that the replica reproduces the unit, and reports
// the per-layer metrics. The last line of stdout is one JSON object.
//
// Timed metrics are reported twice: as host time, and rescaled to a
// reference host speed (the `_ref` metrics and setup_s). A fixed kernel
// (ReferenceKernel) runs before every unit and every set-up. The CPU part
// of each measured interval is multiplied by kReferenceKernelMs over the
// median of the kernel's five samples nearest to it; waiting time is kept
// as measured.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "gate.hpp"
#include "heap_meter.hpp"
#include "olsr/selector_registry.hpp"
#include "replica.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of this process (all its threads, not its children).
double process_cpu_seconds() {
  timespec t{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// Host time and the process CPU time spent within it.
struct Interval {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

class IntervalTimer {
 public:
  IntervalTimer() : wall0_(Clock::now()), cpu0_(process_cpu_seconds()) {}
  Interval stop() const {
    return {seconds_since(wall0_), process_cpu_seconds() - cpu0_};
  }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// The reference kernel's time on the reference host, a 4-vCPU Xeon VM at
/// 2.0 GHz, when that host is quiet. Contention from neighbouring tenants
/// made it up to twice as slow.
constexpr double kReferenceKernelMs = 16.0;

/// Kernel samples on each side of a measured interval that set its speed.
constexpr std::size_t kSpeedWindow = 2;

/// Bounds on the set-ups per run; setup_s is their median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 9;

/// Host speed probe, run before every set-up and every unit: fixed work in
/// two parts, integer ALU chains and a small event heap with a hash-table
/// duplicate check (the simulator's kind of work, in benchmark code that
/// library changes cannot speed up). Contention from other tenants slows
/// it along with the simulator: over ten 50 s packet-control runs on the
/// reference host, whose speed drifted by a third between runs, the
/// run-to-run spread (IQR / median) of p50 unit time was 0.19 in host time
/// and 0.080 rescaled, and of p90 0.23 and 0.067.
class ReferenceKernel {
 public:
  ReferenceKernel() : table_(1u << 16, 0) {
    for (std::uint32_t i = 0; i < 4096; ++i) events_.push_back({i * 0.37, i});
    std::make_heap(events_.begin(), events_.end(), later);
  }

  /// Runs the kernel once; returns its host time in ms.
  double run_ms() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 1'000'000; ++i)
      for (std::uint64_t& x : a) {
        x ^= x << 13;
        x ^= x >> 7;
        x *= 0x9e3779b97f4a7c15ULL;
      }
    std::uint64_t r = 88172645463325252ULL;
    for (int i = 0; i < 100'000; ++i) {
      std::pop_heap(events_.begin(), events_.end(), later);
      Event& e = events_.back();
      r ^= r << 13;
      r ^= r >> 7;
      r ^= r << 17;
      const std::uint32_t slot =
          ((e.node * 2654435761u) ^ static_cast<std::uint32_t>(r & 0xff)) &
          0xffff;
      if (table_[slot] == e.node) ++a[0];
      else table_[slot] = e.node;
      e.t += 1.0 + static_cast<double>(r & 1023) * 0.001;
      e.node = static_cast<std::uint32_t>(r >> 52);
      std::push_heap(events_.begin(), events_.end(), later);
    }
    for (const std::uint64_t x : a) sink_ += x;
    return seconds_since(t0) * 1e3;
  }

 private:
  struct Event {
    double t;
    std::uint32_t node;
  };
  static bool later(const Event& x, const Event& y) { return x.t > y.t; }

  std::vector<Event> events_;
  std::vector<std::uint32_t> table_;
  std::uint64_t sink_ = 0;  ///< keeps the results live
};

struct Args {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  bool pin = false;
  std::string golden;
  std::string commit = "unknown";
  std::string spans;
  /// Metric names the JSON result carries, in order (BENCHMARK.json's
  /// end_to_end list with --trace 0, its per_layer list with --trace 1).
  std::vector<std::string> metrics;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --golden FILE --metrics A,B,...\n"
               "                 [--commit ID] [--spans FILE]\n"
               "       perfbench --workload NAME --pin\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--pin") {
      a.pin = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--golden") a.golden = value;
      else if (flag == "--commit") a.commit = value;
      else if (flag == "--spans") a.spans = value;
      else if (flag == "--metrics") {
        std::istringstream names(value);
        for (std::string name; std::getline(names, name, ',');)
          a.metrics.push_back(name);
      }
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!a.pin && (a.golden.empty() || a.metrics.empty()))
    usage("--golden and --metrics are required");
  return a;
}

std::string loadavg() {
  std::ifstream in("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  in >> one >> five >> fifteen;
  std::ostringstream os;
  os << "[" << one << ", " << five << ", " << fifteen << "]";
  return os.str();
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Linear-interpolation quantile of ascending `v` (q = 1 is the maximum).
double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The geometric mean of the sweep points' own medians of `per_point`
/// (sorted in place): with several points the pooled median would sit in
/// the gap between two points' values and swing with their extreme units.
/// One point: its median.
double point_median(std::vector<std::vector<double>>& per_point) {
  double log_sum = 0.0;
  std::size_t points = 0;
  for (std::vector<double>& v : per_point) {
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    log_sum += std::log(quantile(v, 0.5));
    ++points;
  }
  return points ? std::exp(log_sum / static_cast<double>(points)) : 0.0;
}

void require_executable(const char* env) {
  const char* path = std::getenv(env);
  if (path == nullptr || ::access(path, X_OK) != 0)
    throw std::runtime_error(std::string("wire workload: $") + env +
                             " must name the executable to spawn");
}

struct SetUp {
  Interval took;
  double warm_heap_kb;  ///< peak live heap the warm-up unit added
};

/// One set-up: selector registry, the seed's unit deck, reference
/// digests, binary discovery (wire), and one untimed warm-up unit (the
/// pinned seed's unit 0, so set-up does the same work on every seed).
SetUp set_up(const Workload& w, const Args& a,
             std::vector<qolsr::ExperimentSpec>& deck,
             std::vector<std::uint64_t>& pins) {
  const IntervalTimer timer;
  (void)qolsr::SelectorRegistry::builtin();
  deck.clear();
  for (std::size_t i = 0; i < w.deck; ++i)
    deck.push_back(unit_spec(w, a.seed, i));
  pins = load_pins(a.golden, w.deck);
  if (w.shape.backend == qolsr::BackendId::kWire) {
    require_executable("QOLSR_NODE_BIN");
    require_executable("QOLSR_SWITCH_BIN");
  }
  const qolsr::ExperimentSpec warm = unit_spec(w, kPinnedSeed, 0);
  const std::size_t heap_before = heap_live_bytes();
  heap_peak_reset();
  const UnitOutput out = run_unit(warm);
  const double heap_kb =
      static_cast<double>(heap_peak_bytes() - heap_before) / 1024.0;
  const std::string why = check_unit(w, kPinnedSeed, 0, warm, out, pins);
  if (!why.empty())
    throw std::runtime_error("warm-up unit failed the gate: " + why);
  return {timer.stop(), heap_kb};
}

int pin(const Workload& w) {
  int status = 0;
  for (std::size_t i = 0; i < w.deck; ++i) {
    const qolsr::ExperimentSpec spec = unit_spec(w, kPinnedSeed, i);
    const UnitOutput out = run_unit(spec);
    const std::string why = check_unit(w, kPinnedSeed, i, spec, out, {});
    if (!why.empty()) {
      std::cerr << "unit " << i << ": " << why << "\n";
      status = 1;
    }
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      csv_digest(out.csv, spec.backend)));
    std::cout << i << " " << digest << "\n" << std::flush;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* found = find_workload(args.workload);
  if (found == nullptr) usage("unknown workload " + args.workload);
  const Workload& w = *found;

#ifndef NDEBUG
  std::cerr << "perfbench: refusing a build without -DNDEBUG\n";
  return 3;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing a " << PERFBENCH_BUILD_TYPE
              << " build; configure with CMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  if (args.pin) return pin(w);

  const std::string load_start = loadavg();
  std::vector<qolsr::ExperimentSpec> deck;
  std::vector<std::uint64_t> pins;
  ReferenceKernel kernel;
  std::vector<double> kernel_ms;  // reference kernel samples of this run
  std::vector<Interval> setups;
  std::vector<double> warm_heap_kb;
  try {
    // At least 3 set-ups, more while they have taken under 1.5 s, so a
    // fast set-up's median rests on more samples.
    double setup_total_s = 0.0;
    while (setups.size() < kMinSetups ||
           (setups.size() < kMaxSetups && setup_total_s < 1.5)) {
      kernel_ms.push_back(kernel.run_ms());
      const SetUp done = set_up(w, args, deck, pins);
      setups.push_back(done.took);
      warm_heap_kb.push_back(done.warm_heap_kb);
      setup_total_s += done.took.wall_s;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    return 1;
  }

  const bool wire = w.shape.backend == qolsr::BackendId::kWire;
  Tracer tracer;
  Counters counters;
  std::vector<Interval> unit_times;  // of every attempted unit, in order
  std::vector<std::size_t> ok_units;  // indices of the completed ones
  // Peak heap above the unit's starting point per deployed node, of each
  // completed unit (printed only: which deployments a run draws moves its
  // mean by up to a quarter on wire-fleet).
  std::vector<double> heap_kb;
  double window = 0.0;         // summed host time of every attempted unit
  double untraced_base = 0.0;  // of the units the replica traced
  std::size_t traced = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t unconverged = 0;  // runs the gate lets pass under traffic
  bool replica_ok = true;
  const Clock::time_point start = Clock::now();
  // Whole cycles of the workload's sweep points only, so every point has
  // the same share of the units and the percentiles do not depend on
  // where the deadline fell.
  const std::size_t cycle = w.points.size();
  for (std::size_t i = 0; seconds_since(start) < args.seconds || i % cycle;
       ++i) {
    const qolsr::ExperimentSpec& spec = deck[i % deck.size()];
    const std::size_t dirs_before = wire ? wire_socket_dirs() : 0;
    std::string why;
    UnitOutput out;
    kernel_ms.push_back(kernel.run_ms());
    const std::size_t heap_before = heap_live_bytes();
    heap_peak_reset();
    const IntervalTimer timer;
    try {
      out = run_unit(spec);
    } catch (const std::exception& e) {
      why = e.what();
    }
    const Interval took = timer.stop();
    const double unit_heap_kb =
        static_cast<double>(heap_peak_bytes() - heap_before) / 1024.0;
    const double ms = took.wall_s * 1e3;
    window += took.wall_s;
    unit_times.push_back(took);
    ++attempted;
    try {
      if (why.empty()) why = check_unit(w, args.seed, i, spec, out, pins);
    } catch (const std::exception& e) {
      why = std::string("gate: ") + e.what();
    }
    if (args.trace && why.empty()) {
      tracer.set_unit(static_cast<std::uint32_t>(i));
      try {
        const std::string mismatch =
            trace_unit(spec, out.result, tracer, counters);
        if (!mismatch.empty()) why = "replica differs: " + mismatch;
      } catch (const std::exception& e) {
        why = std::string("replica: ") + e.what();
      }
      if (why.empty()) {
        untraced_base += ms / 1e3;
        ++traced;
      } else {
        replica_ok = false;
      }
    }
    // After the replica too: its fleets must not leak either.
    if (wire) {
      const std::size_t children = child_pids().size();
      const std::size_t dirs = wire_socket_dirs();
      counters.add("net.leaked_children", static_cast<double>(children));
      if (why.empty() && (children > 0 || dirs > dirs_before))
        why = "leaked " + std::to_string(children) + " child processes and " +
              std::to_string(dirs > dirs_before ? dirs - dirs_before : 0) +
              " socket directories";
    }
    if (why.empty()) {
      ok_units.push_back(i);
      const double nodes = out.result.sweep.front().node_count.mean();
      heap_kb.push_back(nodes > 0 ? unit_heap_kb / nodes : unit_heap_kb);
      for (const qolsr::ProtocolStats& p : out.result.sweep.front().protocols)
        unconverged += p.control.unconverged;
    } else {
      ++failed;
      std::cout << "FAILED unit " << i << " of seed " << args.seed
                << " (unit seed " << spec.scenario.seed << "): " << why
                << "\n";
    }
  }
  // The set-ups and then the units, in the order they ran; kernel sample
  // k ran just before interval k.
  std::vector<Interval> intervals = setups;
  intervals.insert(intervals.end(), unit_times.begin(), unit_times.end());
  // Host speed around each interval relative to the reference host: its
  // CPU time is multiplied by this, waiting time (timers, children,
  // preemption) is kept.
  std::vector<double> speed(intervals.size());
  for (std::size_t k = 0; k < intervals.size(); ++k) {
    const std::size_t lo = k > kSpeedWindow ? k - kSpeedWindow : 0;
    const std::size_t hi = std::min(k + kSpeedWindow + 1, kernel_ms.size());
    std::vector<double> near(kernel_ms.begin() + static_cast<long>(lo),
                             kernel_ms.begin() + static_cast<long>(hi));
    std::sort(near.begin(), near.end());
    speed[k] = kReferenceKernelMs / quantile(near, 0.5);
  }
  // Interval k in seconds, in host time or at reference speed.
  const auto seconds_of = [&](std::size_t k, bool at_reference) {
    const Interval& t = intervals[k];
    const double cpu = std::min(t.cpu_s, t.wall_s);
    return t.wall_s - cpu + cpu * (at_reference ? speed[k] : 1.0);
  };
  struct Timed {
    double units_per_s, unit_ms_p50, unit_ms_tail, setup_s;
  };
  const std::size_t completed = ok_units.size();
  const double tail_q = w.tail_percentile;
  const auto timed_at = [&](bool at_reference) {
    const auto unit_s = [&](std::size_t i) {
      return seconds_of(setups.size() + i, at_reference);
    };
    // Throughput: completed units over the time of every attempted unit.
    double secs = 0.0;
    for (std::size_t i = 0; i < attempted; ++i) secs += unit_s(i);
    std::vector<double> ok_ms;
    std::vector<std::vector<double>> point_ms(w.points.size());
    for (const std::size_t i : ok_units) {
      ok_ms.push_back(unit_s(i) * 1e3);
      point_ms[i % w.points.size()].push_back(ok_ms.back());
    }
    std::sort(ok_ms.begin(), ok_ms.end());
    std::vector<double> setup_s;
    for (std::size_t k = 0; k < setups.size(); ++k)
      setup_s.push_back(seconds_of(k, at_reference));
    std::sort(setup_s.begin(), setup_s.end());
    return Timed{secs > 0 ? static_cast<double>(completed) / secs : 0.0,
                 point_median(point_ms),
                 quantile(ok_ms, tail_q), quantile(setup_s, 0.5)};
  };
  const Timed host = timed_at(false);
  const Timed ref = timed_at(true);
  const auto beyond = static_cast<std::size_t>(
      std::floor((1.0 - tail_q) * static_cast<double>(completed)));
  double unit_cpu = 0.0;
  for (const Interval& t : unit_times) unit_cpu += t.cpu_s;
  std::vector<double> sorted_speed = speed;
  std::sort(sorted_speed.begin(), sorted_speed.end());
  std::sort(warm_heap_kb.begin(), warm_heap_kb.end());

  const std::vector<LayerMetric> e2e = {
      {"units_per_s_ref", ref.units_per_s, "1/s"},
      {"unit_ms_p50_ref", ref.unit_ms_p50, "ms"},
      {"unit_ms_tail_ref", ref.unit_ms_tail, "ms"},
      {"setup_s", ref.setup_s, "s"},
      // A unit's heap is deterministic, so the warm-up unit's is the same
      // on every run and seed: a memory change shows without sampling
      // noise. The set-ups agree; the median guards against one that does
      // not.
      {"warmup_heap_kb", quantile(warm_heap_kb, 0.5), "KB"},
      {"heap_kb_per_node",
       heap_kb.empty() ? 0.0
                       : std::accumulate(heap_kb.begin(), heap_kb.end(), 0.0) /
                             static_cast<double>(heap_kb.size()),
       "KB"},
      // VmHWM, not ru_maxrss: the latter survives exec and would report
      // the launching process's peak when that was larger.
      {"peak_rss_mb", static_cast<double>(peak_rss_kb(::getpid())) / 1024.0,
       "MB"},
      {"units_per_s", host.units_per_s, "1/s"},
      {"unit_ms_p50", host.unit_ms_p50, "ms"},
      {"unit_ms_tail", host.unit_ms_tail, "ms"},
      {"setup_host_s", host.setup_s, "s"},
  };

  std::cout << "workload " << w.name << " seed " << args.seed << " trace "
            << args.trace << " seconds " << args.seconds
            << " — supersedes BENCH_sweep.json " << w.supersedes
            << "; numbers from different hosts are not comparable\n";
  std::cout << "provenance {\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"loadavg_start\": " << load_start
            << ", \"loadavg_end\": " << loadavg()
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"flags\": " << json_string(PERFBENCH_CXX_FLAGS)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << json_string(args.commit) << "}\n";
  std::cout << "host speed    " << quantile(sorted_speed, 0.5)
            << " median, " << quantile(sorted_speed, 0.1) << " to "
            << quantile(sorted_speed, 0.9) << " p10-p90 (reference kernel "
            << kReferenceKernelMs << " ms / median of the "
            << 2 * kSpeedWindow + 1 << " nearest of " << kernel_ms.size()
            << " samples; unit CPU " << unit_cpu << " s of " << window
            << " s)\n";
  for (const auto& [timed, suffix] :
       {std::pair{&host, "    "}, std::pair{&ref, "_ref"}})
    std::cout << "units_per_s" << suffix << "   " << timed->units_per_s
              << " 1/s (" << completed << " of " << attempted
              << " units completed)\n"
              << "unit_ms_p50" << suffix << "   " << timed->unit_ms_p50
              << " ms (geometric mean of the sweep points' medians, "
              << completed << " units)\n"
              << "unit_ms_tail" << suffix << "  " << timed->unit_ms_tail
              << " ms (p" << tail_q * 100 << " of " << completed
              << " units, " << beyond << " beyond"
              << (beyond < 10 ? ": fewer than 10" : "") << ")\n";
  std::cout << "setup_s       " << ref.setup_s << " s at reference speed, "
            << host.setup_s << " s host time (median of " << setups.size()
            << " set-ups, each with one warm-up unit)\n"
            << "warmup_heap_kb " << e2e[4].value
            << " KB (peak live heap of the warm-up unit, the pinned seed's "
               "unit 0)\n"
            << "heap_kb_per_node " << e2e[5].value
            << " KB (a unit's peak live heap above its start per deployed "
               "node; mean over "
            << completed << " units)\n"
            << "peak_rss_mb   " << e2e[6].value << " MB (perfbench process)\n"
            << "failed_share  "
            << (attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0)
            << " (" << failed << " of " << attempted << " units)\n";
  if (w.shape.backend != qolsr::BackendId::kOracle)
    std::cout << "unconverged   " << unconverged << " of "
              << completed * w.shape.selectors.size()
              << " protocol runs stopped at the time cap"
              << (unconverged > 0 ? " (under an active traffic spec: "
                                    "reported, not failed)"
                                  : "")
              << "\n";

  const auto requested = [&](const std::string& name) {
    return std::find(args.metrics.begin(), args.metrics.end(), name) !=
           args.metrics.end();
  };
  std::vector<LayerMetric> measured = e2e;
  if (args.trace) {
    const double traced_s = traced_unit_seconds(tracer);
    std::cout << "replica fidelity: "
              << (replica_ok ? "every traced unit reproduced run_experiment"
                             : "FAILED")
              << "\ntracing overhead: "
              << (untraced_base > 0 ? (traced_s - untraced_base) / untraced_base
                                    : 0.0)
              << " (traced " << traced_s << " s vs untraced " << untraced_base
              << " s over " << traced << " units)\n";
    measured = layer_metrics(tracer, counters, traced);
    for (const LayerMetric& m : measured)
      std::cout << (requested(m.name) ? "layer " : "layer (printed only) ")
                << m.name << " " << m.value << " " << m.unit << "\n";
    std::cout << "layer shares are self time of the benchmark's spans; "
                 "olsr/proto/routing work inside the simulator counts as "
                 "sim\n";
    if (!args.spans.empty()) write_spans(tracer, args.spans);
  }
  std::vector<LayerMetric> json_metrics;
  for (const std::string& name : args.metrics) {
    const auto it = std::find_if(measured.begin(), measured.end(),
                                 [&](const LayerMetric& m) {
                                   return m.name == name;
                                 });
    if (it == measured.end()) {
      std::cerr << "perfbench: no metric named " << name << "\n";
      return 2;
    }
    json_metrics.push_back(*it);
  }

  const bool correct = failed == 0 && attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < json_metrics.size(); ++i)
    std::cout << (i ? ", " : "") << json_string(json_metrics[i].name)
              << ": {\"value\": " << number(json_metrics[i].value)
              << ", \"unit\": " << json_string(json_metrics[i].unit) << "}";
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
