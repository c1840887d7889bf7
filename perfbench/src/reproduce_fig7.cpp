// reproduce-fig7: the paper's Figure 7.  Every suite code is compiled in
// Polaris mode (at jobs=1, and at jobs=min(4, hw) as a determinism check)
// and in baseline mode, then run three times through the interpreter: the
// untransformed reference, and both transformed programs at p=8 under
// backend_config.  The seed shuffles the order of the codes.
//
// Checks: the reference output equals the stored expected output; each
// transformed program prints what its reference prints; each transformed
// run satisfies clock.parallel >= clock.serial / p; the jobs=4 compile
// reproduces the jobs=1 annotated source and loop report.
#include <cstdio>
#include <fstream>

#include "parser/parser.h"
#include "suite/suite.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace polaris;

constexpr int kProcessors = 8;

using Outputs = std::map<std::string, std::vector<std::string>>;

/// Reads the expected-output file: "== <code>" headers, each followed by
/// that code's printed lines; '#' lines are comments.
Outputs read_expected(const std::string& path) {
  Outputs out;
  std::ifstream in(path);
  std::string line, code;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      code = line.substr(3);
      out[code];
    } else if (!code.empty()) {
      out[code].push_back(line);
    } else if (!line.empty() && line[0] != '#') {
      break;  // malformed: leave the rest unread, the checks then fail
    }
  }
  return out;
}

Options with_jobs(Options o, int jobs) {
  o.jobs = jobs;
  return o;
}

class ReproduceFig7 : public Workload {
 public:
  explicit ReproduceFig7(std::string expected_path)
      : expected_path_(std::move(expected_path)) {}

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    order_ = shuffled(benchmark_suite().size(), rng);
    expected_ = read_expected(expected_path_);
    // Warm-up: every code compiled once in each mode.
    for (const BenchProgram& bp : benchmark_suite()) {
      compile(bp.source, Options::polaris(), nullptr);
      compile(bp.source, Options::baseline(), nullptr);
    }
  }

  PassFigures pass(Ops& ops, Layers* layers) override {
    PassFigures fig;
    std::vector<double> pol_speedups, base_speedups;
    for (std::size_t i : order_) {
      const BenchProgram& bp = benchmark_suite()[i];
      const std::string& name = bp.name;

      // Untransformed reference.
      Simulated ref;
      try {
        std::unique_ptr<Program> prog = parse_program(bp.source);
        ref = simulate(*prog, MachineConfig{}, layers != nullptr);
      } catch (const std::exception& e) {
        ref.error = e.what();
      }
      auto want = expected_.find(name);
      std::string problem = ref.error;
      if (problem.empty() &&
          (want == expected_.end() || want->second != ref.result.output))
        problem = "output differs from the expected-output file";
      ops.attempt(problem.empty(), name + " reference run: " + problem);
      account(fig, layers, ref, "interp.ref_run_ms");

      // Polaris mode.
      Compiled pol = compile(bp.source, Options::polaris(), layers);
      problem = compile_problem(pol);
      ops.attempt(problem.empty(), name + " polaris compile: " + problem);
      Compiled pol4 =
          compile(bp.source, with_jobs(Options::polaris(), jobs4()), layers);
      problem = compile_problem(pol4);
      if (problem.empty() &&
          (pol4.report.annotated_source != pol.report.annotated_source ||
           loop_report(pol4.report) != loop_report(pol.report)))
        problem = "jobs=" + std::to_string(jobs4()) +
                  " output differs from jobs=1";
      ops.attempt(problem.empty(), name + " polaris jobs=4 compile: " + problem);
      fig.compile_ms += pol.ms;
      fig.compile_jobs4_ms += pol4.ms;
      fig.parallel_loops += parallel_loop_count(pol.report);
      pol_speedups.push_back(
          run_transformed(ops, fig, layers, CompilerMode::Polaris, pol, ref));

      // Baseline mode.
      Compiled base = compile(bp.source, Options::baseline(), layers);
      problem = compile_problem(base);
      ops.attempt(problem.empty(), name + " baseline compile: " + problem);
      base_speedups.push_back(
          run_transformed(ops, fig, layers, CompilerMode::Baseline, base, ref));
      speedup_[name] = {pol_speedups.back(), base_speedups.back()};
    }
    sim_speedup_ = geomean(pol_speedups);
    sim_speedup_baseline_ = geomean(base_speedups);
    add(layers, "sim_speedup_p8", sim_speedup_);
    add(layers, "sim_speedup_baseline_p8", sim_speedup_baseline_);
    return fig;
  }

  std::vector<std::string> sources() const override {
    std::vector<std::string> out;
    for (const BenchProgram& bp : benchmark_suite()) out.push_back(bp.source);
    return out;
  }

  bool final_checks() override {
    // Every code must have an expected output; the per-run comparison
    // happens in each reference-run operation.
    bool ok = true;
    for (const BenchProgram& bp : benchmark_suite())
      if (expected_.count(bp.name) == 0) {
        std::fprintf(stderr, "perfbench: %s has no expected output in %s\n",
                     bp.name.c_str(), expected_path_.c_str());
        ok = false;
      }
    return ok;
  }

  std::vector<Figure> summary() const override {
    std::vector<Figure> out = {
        {"sim_speedup_p8", sim_speedup_, "x"},
        {"sim_speedup_baseline_p8", sim_speedup_baseline_, "x"}};
    for (const auto& [name, s] : speedup_) {
      out.push_back({"speedup_p8." + name + ".polaris", s.first, "x"});
      out.push_back({"speedup_p8." + name + ".baseline", s.second, "x"});
    }
    return out;
  }

 private:
  /// Adds a run's host time and statement count to the pass figures and
  /// (traced) its interpreter figures under `time_key`.
  static void account(PassFigures& fig, Layers* layers, const Simulated& s,
                      const char* time_key) {
    fig.run_ms += s.ms;
    fig.statements += static_cast<double>(s.result.statements);
    add(layers, time_key, s.ms);
    add(layers, "interp.statements", static_cast<double>(s.result.statements));
    add(layers, "_run_allocs", static_cast<double>(s.allocs));
  }

  /// Runs a transformed program at p=8 under the mode's backend, checks
  /// it, and returns its Figure 7 speedup over the reference.
  static double run_transformed(Ops& ops, PassFigures& fig, Layers* layers,
                                CompilerMode mode, Compiled& c,
                                const Simulated& ref) {
    const char* label = mode == CompilerMode::Polaris ? "polaris" : "baseline";
    Simulated run;
    double factor = 1.0;
    if (c.program == nullptr) {
      run.error = "compile failed";
    } else {
      ExecutionConfig cfg = backend_config(mode, *c.program, kProcessors);
      factor = cfg.codegen_factor;
      run = simulate(*c.program, cfg.machine, layers != nullptr);
    }
    std::string problem = run.error;
    const RunClock& clk = run.result.clock;
    if (problem.empty() && run.result.output != ref.result.output)
      problem = "transformed output differs from the reference";
    if (problem.empty() && clk.parallel * kProcessors < clk.serial)
      problem = "clock.parallel < clock.serial / p";
    ops.attempt(problem.empty(), std::string(label) + " run: " + problem);
    account(fig, layers, run, "interp.xform_run_ms");
    if (mode == CompilerMode::Polaris) {
      add(layers, "machine.serial_units", static_cast<double>(clk.serial));
      add(layers, "machine.parallel_units", static_cast<double>(clk.parallel));
      add(layers, "machine.parallel_instances",
          run.result.parallel_instances);
    }
    const double par = static_cast<double>(clk.parallel) * factor;
    return par == 0.0 ? 1.0
                      : static_cast<double>(ref.result.clock.serial) / par;
  }

  std::string expected_path_;
  std::vector<std::size_t> order_;
  Outputs expected_;
  std::map<std::string, std::pair<double, double>> speedup_;
  double sim_speedup_ = 0;
  double sim_speedup_baseline_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_reproduce_fig7(const std::string& expected_path) {
  return std::make_unique<ReproduceFig7>(expected_path);
}

bool write_fig7_expected(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# Printed output of the untransformed suite codes, checked by the\n"
         "# reproduce-fig7 workload.  Regenerate with:\n"
         "#   python3 perfbench/run.py --regenerate-expected\n";
  for (const BenchProgram& bp : benchmark_suite()) {
    std::unique_ptr<Program> prog = parse_program(bp.source);
    RunResult r = run_program(*prog, MachineConfig{});
    out << "== " << bp.name << '\n';
    for (const std::string& line : r.output) out << line << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
