#include "sim_baseline.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "driver/compiler.h"
#include "fig6_track.h"
#include "interp/interp.h"
#include "parser/parser.h"
#include "suite/suite.h"

namespace polaris {

namespace {

/// FNV-1a over the output lines, each terminated by '\n'.
std::uint64_t output_hash(const std::vector<std::string>& lines) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const std::string& line : lines) {
    for (char c : line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return h;
}

void append_run(std::ostringstream& os, bool& first, const std::string& name,
                const RunResult& r) {
  char hash[17];
  std::snprintf(hash, sizeof hash, "%016" PRIx64, output_hash(r.output));
  os << (first ? "\n" : ",\n") << "  {\"run\": \"" << name
     << "\", \"serial\": " << r.clock.serial
     << ", \"parallel\": " << r.clock.parallel
     << ", \"statements\": " << r.statements
     << ", \"parallel_instances\": " << r.parallel_instances
     << ", \"spec_attempts\": " << r.speculative_attempts
     << ", \"spec_failures\": " << r.speculative_failures
     << ", \"pd_test_cost\": " << r.pd_test_cost
     << ", \"wasted\": " << r.speculative_wasted
     << ", \"lines\": " << r.output.size() << ", \"output_hash\": \""
     << hash << "\"}";
  first = false;
}

MachineConfig processors(int p) {
  MachineConfig config;
  config.processors = p;
  return config;
}

}  // namespace

std::string sim_baseline_document() {
  std::ostringstream os;
  os << "{\"schema\": \"polaris-sim-baseline\", \"version\": 1, \"runs\": [";
  bool first = true;

  for (const BenchProgram& bp : benchmark_suite()) {
    auto ref = parse_program(bp.source);
    append_run(os, first, bp.name + "/reference/p1",
               run_program(*ref, processors(1)));
    for (CompilerMode mode : {CompilerMode::Polaris, CompilerMode::Baseline}) {
      const std::string tag =
          mode == CompilerMode::Polaris ? "polaris" : "baseline";
      auto prog = Compiler(mode).compile(bp.source);
      for (int p : {1, 8}) {
        ExecutionConfig cfg = backend_config(mode, *prog, p);
        append_run(os, first, bp.name + "/" + tag + "/p" + std::to_string(p),
                   run_program(*prog, cfg.machine));
      }
    }
  }

  Options opts = Options::polaris();
  opts.runtime_pd_test = true;
  auto track = Compiler(opts).compile(bench::kTrackSource);
  for (int p = 1; p <= 8; ++p)
    append_run(os, first, "fig6-track/pdtest/p" + std::to_string(p),
               run_program(*track, processors(p)));

  os << "\n]}\n";
  return os.str();
}

}  // namespace polaris
