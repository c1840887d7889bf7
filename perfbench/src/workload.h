// The workload interface the run loop in main.cpp drives, and the three
// workloads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// A figure printed in a run's human-readable summary.
struct Figure {
  std::string name;
  double value = 0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Makes the inputs from `seed` and warms up: everything before the
  /// first timed operation.  Timed as setup_s; may run several times.
  virtual void setup(std::uint64_t seed) = 0;

  /// One whole round of the workload's operations.  With `layers`, the
  /// round is traced and records per-layer figures there.
  virtual PassFigures pass(Ops& ops, Layers* layers) = 0;

  /// The program sources whose split and parse the traced run times by
  /// calling the parser directly.
  virtual std::vector<std::string> sources() const = 0;

  /// Per-layer figures measured outside the program (traced runs only).
  virtual void probe(Layers& /*layers*/) {}

  /// Checks made once per run, after the timed rounds.  Their compiles
  /// and runs are not counted as operations, so every run attempts whole
  /// rounds only.  Returns false when a check fails (the run is then not
  /// correct).
  virtual bool final_checks() = 0;

  /// Workload-specific figures for the human-readable summary.
  virtual std::vector<Figure> summary() const = 0;
};

std::unique_ptr<Workload> make_compile_suite();
std::unique_ptr<Workload> make_reproduce_fig7(const std::string& expected_path);
std::unique_ptr<Workload> make_speculative_track();

/// Writes the untransformed suite codes' printed output in the format
/// reproduce-fig7 checks against.  Returns false on failure.
bool write_fig7_expected(const std::string& path);

}  // namespace perfbench
