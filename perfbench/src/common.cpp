#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "support/context.h"

namespace perfbench {

using namespace polaris;

void Ops::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 5) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

int jobs4() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(4u, hw));
}

namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Total length covered by a set of [begin, end) intervals.
std::uint64_t covered_us(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0, cur_b = 0, cur_e = 0;
  bool open = false;
  for (const Interval& x : iv) {
    if (open && x.first <= cur_e) {
      cur_e = std::max(cur_e, x.second);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = x.first;
    cur_e = x.second;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

std::uint64_t stat(const CompileReport& r, const char* component,
                   const char* name) {
  for (const StatisticValue& s : r.stats)
    if (s.component == component && s.name == name) return s.value;
  return 0;
}

/// Folds one traced compile into the per-layer figures.  jobs=1 compiles
/// feed the pass, dependence, analysis and symbolic figures; jobs>1
/// compiles feed the driver's snapshot / verify / outside-passes figures
/// and the worker pool's thread count (the layers whose cost shows in
/// compile_jobs4_ms).  Keys starting with '_' are raw sums that the
/// run loop turns into ratios.
void fold(const CompileReport& rep, const trace::TraceCollector& tc,
          int jobs, std::uint64_t allocs, int threads_spawned,
          Layers* layers) {
  double snapshot_us = 0, verify_us = 0, ddtest_us = 0, rangetest_us = 0,
         gsa_us = 0, compile_us = 0;
  std::vector<Interval> inner;  // parse + pass spans
  for (const trace::TraceEvent& e : tc.events()) {
    if (e.phase != 'X') continue;
    const Interval iv{e.ts_us, e.ts_us + e.dur_us};
    if (e.name == "compile") compile_us += static_cast<double>(e.dur_us);
    else if (e.name == "parse" || e.category == "pass") inner.push_back(iv);
    else if (e.name == "snapshot") snapshot_us += static_cast<double>(e.dur_us);
    else if (e.name == "verify-unit" || e.name == "verify-program")
      verify_us += static_cast<double>(e.dur_us);
    else if (e.name == "ddtest") ddtest_us += static_cast<double>(e.dur_us);
    else if (e.name == "rangetest")
      rangetest_us += static_cast<double>(e.dur_us);
    else if (e.name == "gsa-build") gsa_us += static_cast<double>(e.dur_us);
  }
  if (jobs > 1) {
    add(layers, "driver.snapshot_ms", snapshot_us / 1000.0);
    add(layers, "driver.verify_ms", verify_us / 1000.0);
    add(layers, "driver.outside_passes_ms",
        (compile_us - static_cast<double>(covered_us(inner))) / 1000.0);
    add(layers, "_pool_threads_j4", threads_spawned);
    add(layers, "_compiles_j4", 1);
    return;
  }
  for (const PassTiming& t : rep.pass_timings)
    add(layers, "passes." + t.pass + "_ms", t.ms);
  add(layers, "dep.ddtest_ms", ddtest_us / 1000.0);
  add(layers, "dep.rangetest_ms", rangetest_us / 1000.0);
  const double tested =
      static_cast<double>(stat(rep, "ddtest", "pairs_tested"));
  add(layers, "dep.ddtest_pairs_tested", tested);
  add(layers, "_ddtest_independent",
      static_cast<double>(stat(rep, "ddtest", "pairs_independent_gcd") +
                          stat(rep, "ddtest", "pairs_independent_banerjee")));
  add(layers, "dep.rangetest_pairs_queried",
      static_cast<double>(stat(rep, "rangetest", "pairs_queried")));
  add(layers, "dep.rangetest_pairs_proven",
      static_cast<double>(stat(rep, "rangetest", "pairs_proven")));
  add(layers, "dep.rangetest_permutations_tried",
      static_cast<double>(stat(rep, "rangetest", "permutations_tried")));
  add(layers, "analysis.gsa_ms", gsa_us / 1000.0);
  add(layers, "analysis.gsa_value_queries",
      static_cast<double>(stat(rep, "gsa", "value_queries")));
  add(layers, "analysis.queries", static_cast<double>(rep.analysis.queries));
  add(layers, "_analysis_hits", static_cast<double>(rep.analysis.hits));
  add(layers, "symbolic.canonical_roundtrips",
      static_cast<double>(stat(rep, "simplify", "canonical_roundtrips")));
  add(layers, "symbolic.fuel", static_cast<double>(rep.resource.fuel_spent));
  add(layers, "_allocs_j1", static_cast<double>(allocs));
  add(layers, "_compiles_j1", 1);
}

}  // namespace

Compiled compile(const std::string& source, Options opts, Layers* layers) {
  Compiled out;
  CompileContext cc;
  const bool traced = layers != nullptr;
  if (traced) {
    // Headroom far above any suite compile: the governor charges fuel at
    // every symbolic-work site but never trips.
    opts.compile_budget_ms = 1e6;
    cc.trace().start("");
  }
  const int jobs = opts.jobs;
  Compiler compiler(std::move(opts));
  const std::uint64_t a0 = allocations();
  if (traced) set_alloc_counting(true);
  const Clock::time_point t0 = Clock::now();
  try {
    out.program = compiler.compile(source, &out.report, cc);
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.ms = ms_since(t0);
  if (traced) {
    set_alloc_counting(false);
    add(layers, jobs > 1 ? "_compile_ms_j4" : "_compile_ms_j1", out.ms);
    fold(out.report, cc.trace(), jobs, allocations() - a0,
         jobs > 1 ? cc.pool().threads_spawned() : 0, layers);
    cc.trace().stop();
  }
  return out;
}

std::string loop_report(const CompileReport& report) {
  std::ostringstream os;
  for (const LoopReport& l : report.loops)
    os << l.unit << ' ' << l.loop << ' ' << l.depth << ' ' << l.parallel
       << ' ' << l.speculative << ' ' << l.reason_code << ' ' << l.dep_pairs
       << ' ' << l.dep_by_gcd << ' ' << l.dep_by_banerjee << ' '
       << l.dep_by_rangetest << '\n';
  return os.str();
}

std::map<std::string, std::vector<std::string>> unit_verdicts(
    const CompileReport& report) {
  std::map<std::string, std::vector<std::string>> out;
  for (const LoopReport& l : report.loops)
    out[l.unit].push_back((l.parallel ? "parallel " : "serial ") +
                          std::string(l.speculative ? "speculative " : "") +
                          l.reason_code);
  return out;
}

int parallel_loop_count(const CompileReport& report) {
  int n = 0;
  for (const LoopReport& l : report.loops) n += l.parallel ? 1 : 0;
  return n;
}

std::string compile_problem(const Compiled& c) {
  if (!c.error.empty()) return c.error;
  if (c.program == nullptr) return "no program";
  if (!c.report.failures.empty())
    return "pass " + c.report.failures.front().pass + " rolled back: " +
           c.report.failures.front().message;
  if (!c.report.degradations.empty()) return "resource degradation";
  return "";
}

Simulated simulate(Program& program, const MachineConfig& config,
                   bool traced) {
  Simulated out;
  const std::uint64_t a0 = allocations();
  if (traced) set_alloc_counting(true);
  const Clock::time_point t0 = Clock::now();
  try {
    out.result = run_program(program, config);
  } catch (const std::exception& e) {
    out.error = e.what();
  } catch (...) {
    out.error = "unknown exception";
  }
  out.ms = ms_since(t0);
  if (traced) set_alloc_counting(false);
  out.allocs = allocations() - a0;
  return out;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) {
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % n;
}

std::vector<std::size_t> shuffled(std::size_t n, Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench
