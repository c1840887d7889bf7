// The benchmark binary: runs one workload for a fixed time and prints the
// result as one JSON line (the last line of standard output).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expected FILE]
//   perfbench --write-expected FILE
//
// --trace 0 times whole rounds of operations ("passes") and reports the
// end-to-end metrics.  --trace 1 alternates untraced and traced passes,
// and reports the per-layer metrics and the tracing overhead.
// Lines before the JSON line, each starting with '#', are a human-readable
// summary.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "parser/parser.h"
#include "parser/splitter.h"
#include "support/context.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Spec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const Spec kEndToEnd[] = {
    {"setup_s", "s"},        {"pass_s", "s"},
    {"compile_ms", "ms"},    {"compile_jobs4_ms", "ms"},
    {"parallel_loops", "loops"}, {"peak_rss_mb", "MB"},
};

const Spec kPerLayer[] = {
    {"parser.split_us", "us"},
    {"parser.parse_ms", "ms"},
    {"parser.parse_jobs4_ms", "ms"},
    {"driver.snapshot_ms", "ms"},
    {"driver.verify_ms", "ms"},
    {"driver.outside_passes_ms", "ms"},
    {"driver.allocs_per_compile", "count"},
    {"driver.compile_ms_per_code", "ms"},
    {"driver.compile_share", "ratio"},
    {"passes.inline_ms", "ms"},
    {"passes.constprop_ms", "ms"},
    {"passes.normalize_ms", "ms"},
    {"passes.induction_ms", "ms"},
    {"passes.forwardsub_ms", "ms"},
    {"passes.doall_ms", "ms"},
    {"passes.strength_ms", "ms"},
    {"dep.ddtest_ms", "ms"},
    {"dep.rangetest_ms", "ms"},
    {"dep.ddtest_pairs_tested", "count"},
    {"dep.ddtest_independent_ratio", "ratio"},
    {"dep.rangetest_pairs_queried", "count"},
    {"dep.rangetest_pairs_proven", "count"},
    {"dep.rangetest_permutations_tried", "count"},
    {"dep.rangetest_proven_ratio", "ratio"},
    {"dep.rangetest_permutations_per_query", "ratio"},
    {"analysis.gsa_ms", "ms"},
    {"analysis.gsa_value_queries", "count"},
    {"analysis.queries", "count"},
    {"analysis.hit_ratio", "ratio"},
    {"symbolic.canonical_roundtrips", "count"},
    {"symbolic.fuel", "ticks"},
    {"support.pool_threads_spawned", "count"},
    {"interp.ref_run_ms", "ms"},
    {"interp.xform_run_ms", "ms"},
    {"interp.statements", "count"},
    {"interp.ns_per_stmt", "ns"},
    {"interp.allocs_per_stmt", "ratio"},
    {"sim_stmts_per_s", "stmt/s"},
    {"machine.serial_units", "units"},
    {"machine.parallel_units", "units"},
    {"machine.parallel_instances", "count"},
    {"sim_speedup_p8", "x"},
    {"sim_speedup_baseline_p8", "x"},
    {"runtime.spec_attempts", "count"},
    {"runtime.spec_failures", "count"},
    {"runtime.spec_failure_ratio", "ratio"},
    {"runtime.pd_test_units", "units"},
    {"runtime.spec_wasted_units", "units"},
    {"runtime.shadow_ns_per_access", "ns"},
    {"trace.untraced_pass_ms", "ms"},
    {"trace.traced_pass_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

/// At least this many passes per timed phase, however short --seconds.
constexpr std::size_t kMinPasses = 3;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Repetitions of the direct split/parse calls in a traced run.
constexpr int kParseProbes = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected = "perfbench/expected/fig7_reference.txt";
  std::string write_expected;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "compile-suite|reproduce-fig7|speculative-track --seed N "
               "--seconds S --trace 0|1 [--expected FILE]\n"
               "       perfbench --write-expected FILE\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a number > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--expected") {
      a.expected = v;
    } else if (flag == "--write-expected") {
      a.write_expected = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

struct Sample {
  double ms = 0;  ///< wall time of the pass
  PassFigures fig;
};

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Turns a traced pass's raw sums into the per-layer ratios.
void finalize(Layers& l, double pass_ms) {
  l["driver.allocs_per_compile"] = ratio(l["_allocs_j1"], l["_compiles_j1"]);
  l["driver.compile_ms_per_code"] =
      ratio(l["_compile_ms_j1"], l["_compiles_j1"]);
  l["driver.compile_share"] =
      ratio(l["_compile_ms_j1"] + l["_compile_ms_j4"], pass_ms);
  l["support.pool_threads_spawned"] =
      ratio(l["_pool_threads_j4"], l["_compiles_j4"]);
  l["dep.ddtest_independent_ratio"] =
      ratio(l["_ddtest_independent"], l["dep.ddtest_pairs_tested"]);
  l["dep.rangetest_proven_ratio"] =
      ratio(l["dep.rangetest_pairs_proven"], l["dep.rangetest_pairs_queried"]);
  l["dep.rangetest_permutations_per_query"] = ratio(
      l["dep.rangetest_permutations_tried"], l["dep.rangetest_pairs_queried"]);
  l["analysis.hit_ratio"] = ratio(l["_analysis_hits"], l["analysis.queries"]);
  l["interp.allocs_per_stmt"] =
      ratio(l["_run_allocs"], l["interp.statements"]);
  l["runtime.spec_failure_ratio"] =
      ratio(l["runtime.spec_failures"], l["runtime.spec_attempts"]);
}

/// Runs whole passes until `seconds` have elapsed (at least kMinPasses
/// of each kind).  With `traced`, untraced and traced passes alternate,
/// so a drift in machine speed reaches both halves alike; the traced ones
/// go to `traced` and record their per-layer figures in `layers`.
std::vector<Sample> timed(Workload& w, double seconds, Ops& ops,
                          std::vector<Sample>* traced,
                          std::vector<Layers>* layers) {
  std::vector<Sample> plain;
  auto one = [&](Layers* l) {
    Sample s;
    const Clock::time_point t0 = Clock::now();
    s.fig = w.pass(ops, l);
    s.ms = ms_since(t0);
    return s;
  };
  const Clock::time_point start = Clock::now();
  while (plain.size() < kMinPasses || ms_since(start) < seconds * 1000.0) {
    plain.push_back(one(nullptr));
    if (traced == nullptr) continue;
    Layers l;
    traced->push_back(one(&l));
    finalize(l, traced->back().ms);
    layers->push_back(std::move(l));
  }
  return plain;
}

template <typename F>
double median_of(const std::vector<Sample>& samples, F f) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(f(s));
  return median(v);
}

/// Peak resident memory of this process image (VmHWM).  Not getrusage's
/// ru_maxrss: that survives exec, so it would report the launching
/// interpreter's peak when that was larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  return 0;
}

/// Times the parser's entry points directly on the workload's sources.
void parse_probe(const Workload& w, Layers& out) {
  std::vector<double> split_us, parse_ms, parse4_ms;
  const std::vector<std::string> sources = w.sources();
  for (int rep = 0; rep < kParseProbes; ++rep) {
    double s = 0, p1 = 0, p4 = 0;
    for (const std::string& src : sources) {
      Clock::time_point t0 = Clock::now();
      std::vector<polaris::UnitSlice> slices = polaris::split_units(src);
      s += ms_since(t0) * 1000.0;
      {
        polaris::CompileContext cc;
        t0 = Clock::now();
        auto program = polaris::parse_program(src, &cc, 1);
        p1 += ms_since(t0);
      }
      {
        polaris::CompileContext cc;
        t0 = Clock::now();
        auto program = polaris::parse_program(src, &cc, jobs4());
        p4 += ms_since(t0);
      }
    }
    split_us.push_back(s);
    parse_ms.push_back(p1);
    parse4_ms.push_back(p4);
  }
  out["parser.split_us"] = median(split_us);
  out["parser.parse_ms"] = median(parse_ms);
  out["parser.parse_jobs4_ms"] = median(parse4_ms);
}

/// Statements per host second inside run_program, over `samples`.
double stmts_per_s(const std::vector<Sample>& samples) {
  double stmts = 0, ms = 0;
  for (const Sample& s : samples) {
    stmts += s.fig.statements;
    ms += s.fig.run_ms;
  }
  return ratio(stmts, ms / 1000.0);
}

void print_number(double v) {
  if (!std::isfinite(v)) v = 0;  // keep the line valid JSON
  std::printf("%.17g", v);
}

std::unique_ptr<Workload> make(const Args& a) {
  if (a.workload == "compile-suite") return make_compile_suite();
  if (a.workload == "reproduce-fig7") return make_reproduce_fig7(a.expected);
  if (a.workload == "speculative-track") return make_speculative_track();
  usage(("unknown workload '" + a.workload + "'").c_str());
}

/// The name the pass time goes by on each workload.
const char* pass_alias(const std::string& workload) {
  if (workload == "reproduce-fig7") return "reproduce_s";
  if (workload == "speculative-track") return "spec_pass_s";
  return "compile_pair_s";
}

int run(const Args& a) {
  std::unique_ptr<Workload> w = make(a);

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    w->setup(a.seed);
    setups.push_back(ms_since(t0) / 1000.0);
  }

  Ops ops;
  std::vector<std::pair<Spec, double>> metrics;
  std::vector<Figure> notes;
  std::size_t passes = 0;
  if (!a.trace) {
    const std::vector<Sample> s = timed(*w, a.seconds, ops, nullptr, nullptr);
    passes = s.size();
    const double pass_s = median_of(s, [](const Sample& x) { return x.ms; }) / 1000.0;
    metrics = {
        {kEndToEnd[0], median(setups)},
        {kEndToEnd[1], pass_s},
        {kEndToEnd[2], median_of(s, [](const Sample& x) { return x.fig.compile_ms; })},
        {kEndToEnd[3], median_of(s, [](const Sample& x) { return x.fig.compile_jobs4_ms; })},
        {kEndToEnd[4], median_of(s, [](const Sample& x) { return x.fig.parallel_loops; })},
    };
    notes.push_back({pass_alias(a.workload), pass_s, "s"});
    if (stmts_per_s(s) > 0)
      notes.push_back({"sim_stmts_per_s", stmts_per_s(s), "stmt/s"});
  } else {
    std::vector<Sample> traced;
    std::vector<Layers> traced_layers;
    const std::vector<Sample> plain =
        timed(*w, a.seconds, ops, &traced, &traced_layers);
    passes = plain.size() + traced.size();
    Layers layers;
    for (const Spec& spec : kPerLayer) {
      std::vector<double> v;
      for (Layers& l : traced_layers) v.push_back(l[spec.name]);
      layers[spec.name] = median(v);
    }
    parse_probe(*w, layers);
    w->probe(layers);
    // Interpreter throughput from the untraced half: allocation counting
    // would otherwise be part of it.
    const double rate = stmts_per_s(plain);
    layers["sim_stmts_per_s"] = rate;
    layers["interp.ns_per_stmt"] = rate == 0 ? 0 : 1e9 / rate;
    const double untraced_ms = median_of(plain, [](const Sample& x) { return x.ms; });
    const double traced_ms = median_of(traced, [](const Sample& x) { return x.ms; });
    layers["trace.untraced_pass_ms"] = untraced_ms;
    layers["trace.traced_pass_ms"] = traced_ms;
    layers["trace.overhead_ms"] = traced_ms - untraced_ms;
    layers["trace.overhead_ratio"] = ratio(traced_ms - untraced_ms, untraced_ms);
    for (const Spec& spec : kPerLayer) metrics.push_back({spec, layers[spec.name]});
  }

  const bool checks_ok = w->final_checks();
  // Deterministic figures known only after the final checks.
  for (const Figure& f : w->summary()) {
    notes.push_back(f);
    for (auto& [spec, value] : metrics)
      if (f.name == spec.name) value = f.value;
  }
  if (!a.trace) metrics.push_back({kEndToEnd[5], peak_rss_mb()});

  std::printf("# perfbench %s seed=%llu trace=%d passes=%zu\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, passes);
  for (const auto& [spec, value] : metrics)
    std::printf("#   %-38s %14.6g %s\n", spec.name, value, spec.unit);
  for (const Figure& f : notes)
    std::printf("#   %-38s %14.6g %s\n", f.name.c_str(), f.value,
                f.unit.c_str());
  std::printf("# attempted=%llu failed=%llu checks=%s\n",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()),
              checks_ok ? "ok" : "FAILED");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks_ok ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()));
  bool first = true;
  for (const auto& [spec, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", spec.name);
    print_number(value);
    std::printf(", \"unit\": \"%s\"}", spec.unit);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse_args(argc, argv);
  if (!a.write_expected.empty()) {
    if (!write_fig7_expected(a.write_expected)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   a.write_expected.c_str());
      return 1;
    }
    return 0;
  }
  if (a.workload.empty()) usage("--workload is required");
  return run(a);
}
