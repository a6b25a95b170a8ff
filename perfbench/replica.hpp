#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/experiment.hpp"

namespace perfbench {

/// One traced interval: a call into a layer, made by the benchmark.
struct Span {
  const char* name;  ///< "<layer>.<phase>", or "unit" / "replay" roots
  double start;      ///< seconds since the tracer was created
  double end;
  int parent;        ///< index into the span list, -1 for a root
  std::uint32_t unit;
};

/// In-memory span recorder; written out once, when the run ends.
class Tracer {
 public:
  int open(const char* name);
  void close(int id);
  void set_unit(std::uint32_t unit) { unit_ = unit; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const;

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::uint32_t unit_ = 0;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Counts taken at the same boundaries as the spans, summed over the run
/// (keys are metric-like names; "max:" keys keep a maximum instead).
class Counters {
 public:
  void add(const std::string& key, double value) { sums_[key] += value; }
  void max(const std::string& key, double value);
  double get(const std::string& key) const;

 private:
  std::map<std::string, double> sums_;
};

/// Replays one unit phase by phase through the public functions each
/// backend calls — spans around every call, counters at the same
/// boundaries — plus the workload-shaped proto/net/olsr/routing replay on
/// the unit's own converged state (spans under a "replay" node, kept out
/// of the unit's time). Returns "" when the replica reproduces the
/// reference run_experiment values of the same unit (set sizes, control
/// counts, convergence time, probes), else the first difference.
std::string trace_unit(const qolsr::ExperimentSpec& spec,
                       const qolsr::ExperimentResult& reference,
                       Tracer& tracer, Counters& counters);

/// One per-layer metric of a traced run.
struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics (per-unit / per-op means, counts, and each layer's
/// self-time share of the unit spans) of a traced run over `units` units.
std::vector<LayerMetric> layer_metrics(const Tracer& tracer,
                                       const Counters& counters,
                                       std::size_t units);

/// Total traced unit time in seconds: unit spans minus the replay they
/// contain (the base of the tracing-overhead ratio).
double traced_unit_seconds(const Tracer& tracer);

/// Writes every span as one JSON array.
void write_spans(const Tracer& tracer, const std::string& path);

}  // namespace perfbench
