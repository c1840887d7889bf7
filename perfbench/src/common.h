// Shared pieces of the benchmark binary: the operation ledger, per-layer
// figure accumulation, allocation counting, and the compile / simulate
// operations every workload is built from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "interp/interp.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Allocation counter fed by the benchmark's replacement `operator new`
/// (alloc_count.cpp).  Counting is off unless a traced pass turns it on,
/// so untraced runs pay one relaxed load per allocation.
void set_alloc_counting(bool on);
std::uint64_t allocations();

/// Attempted / failed operations.  An operation is one compile or one
/// simulated run; it fails on an exception, a verifier violation, an
/// output mismatch or a failed check.  The first few failure messages go
/// to stderr.
class Ops {
 public:
  void attempt(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-layer figures of one pass, keyed by metric name.
using Layers = std::map<std::string, double>;

/// What one pass reports for the end-to-end metrics (the driver adds the
/// pass's wall time).
struct PassFigures {
  double compile_ms = 0;        ///< jobs=1 Polaris-mode compiles
  double compile_jobs4_ms = 0;  ///< the same programs at jobs=min(4, hw)
  double parallel_loops = 0;    ///< loops reported parallel (jobs=1)
  double run_ms = 0;            ///< host time inside run_program
  double statements = 0;        ///< statements those runs executed
};

/// One compile operation's result.
struct Compiled {
  std::unique_ptr<polaris::Program> program;
  polaris::CompileReport report;
  double ms = 0;
  std::string error;  ///< empty on success
};

/// Worker count of the jobs=4 compiles: min(4, hardware threads).
int jobs4();

/// Compiles `source` with `opts` and times it.  With `layers`, the compile
/// is traced: its CompileContext collects spans, allocations are counted,
/// the resource governor is armed with headroom, and the report's pass
/// timings, statistics, analysis accounting and span events are folded
/// into `layers` (keys documented in README.md).  Never throws.
Compiled compile(const std::string& source, polaris::Options opts,
                 Layers* layers);

/// Canonical text of a compile's loop verdicts, one line per loop:
/// unit, loop, parallel/speculative flags and reason code.  Includes the
/// loop names, so it is compared only between compiles of one source.
std::string loop_report(const polaris::CompileReport& report);

/// Per-unit verdict sequences (parallel flag + reason code, in order),
/// independent of loop ids — comparable across different sources.
std::map<std::string, std::vector<std::string>> unit_verdicts(
    const polaris::CompileReport& report);

int parallel_loop_count(const polaris::CompileReport& report);

/// The compile checks every compile operation must pass: no exception,
/// no rolled-back pass, no degradation.  Returns "" or the reason.
std::string compile_problem(const Compiled& c);

/// One simulated run, timed; allocations are counted when `traced`.
/// Never throws.
struct Simulated {
  polaris::RunResult result;
  double ms = 0;
  std::uint64_t allocs = 0;  ///< counted only when counting is on
  std::string error;
};
Simulated simulate(polaris::Program& program,
                   const polaris::MachineConfig& config, bool traced);

/// Adds `v` to `layers[key]` when `layers` is non-null.
inline void add(Layers* layers, const std::string& key, double v) {
  if (layers != nullptr) (*layers)[key] += v;
}

/// Deterministic 64-bit generator (SplitMix64) for seeded inputs; the
/// standard distributions are implementation-defined, this is not.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n) by rejection, n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t s_;
};

/// Fisher-Yates order of 0..n-1 drawn from `rng`.
std::vector<std::size_t> shuffled(std::size_t n, Rng& rng);

double median(std::vector<double> v);

/// Geometric mean; 0 for an empty list.
double geomean(const std::vector<double>& v);

}  // namespace perfbench
