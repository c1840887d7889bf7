// compile-suite: the 16 suite minis, each demoted to a subroutine under an
// empty driver, compiled as one 17-unit program in Polaris mode at jobs=1
// and at jobs=min(4, hw).  The seed shuffles the order of the units.
//
// Checks: the two worker counts give byte-identical annotated source and
// loop reports (and match the set-up compile), and each unit's loop
// verdicts equal those of compiling its mini alone.
#include <cstdio>

#include "suite/suite.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace polaris;

Options polaris_jobs(int jobs) {
  Options o = Options::polaris();
  o.jobs = jobs;
  return o;
}

class CompileSuite : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    const std::vector<BenchProgram>& suite = benchmark_suite();
    source_ = "      program driver\n      end\n";
    for (std::size_t i : shuffled(suite.size(), rng)) {
      std::string body = suite[i].source;
      const std::string card = "program " + suite[i].name;
      const std::size_t at = body.find(card);
      if (at != std::string::npos)
        body.replace(at, card.size(), "subroutine " + suite[i].name);
      source_ += body;
      if (!body.empty() && body.back() != '\n') source_ += '\n';
    }
    // Warm-up, one compile at each worker count; the jobs=1 compile is
    // the reference every timed compile must reproduce.
    Compiled c1 = compile(source_, polaris_jobs(1), nullptr);
    compile(source_, polaris_jobs(jobs4()), nullptr);
    annotated_ = c1.report.annotated_source;
    loops_ = loop_report(c1.report);
    verdicts_ = unit_verdicts(c1.report);
  }

  PassFigures pass(Ops& ops, Layers* layers) override {
    PassFigures fig;
    Compiled c1 = compile(source_, polaris_jobs(1), layers);
    check(ops, c1, "jobs=1");
    Compiled c4 = compile(source_, polaris_jobs(jobs4()), layers);
    check(ops, c4, "jobs=" + std::to_string(jobs4()));
    fig.compile_ms = c1.ms;
    fig.compile_jobs4_ms = c4.ms;
    fig.parallel_loops = parallel_loop_count(c1.report);
    return fig;
  }

  std::vector<std::string> sources() const override { return {source_}; }

  bool final_checks() override {
    bool ok = true;
    for (const BenchProgram& bp : benchmark_suite()) {
      Compiled alone = compile(bp.source, polaris_jobs(1), nullptr);
      const std::string problem = compile_problem(alone);
      if (!problem.empty()) {
        std::fprintf(stderr, "perfbench: %s alone: %s\n", bp.name.c_str(),
                     problem.c_str());
        ok = false;
        continue;
      }
      for (const auto& [unit, verdicts] : unit_verdicts(alone.report)) {
        auto it = verdicts_.find(unit);
        if (it == verdicts_.end() || it->second != verdicts) {
          std::fprintf(stderr,
                       "perfbench: unit %s: loop verdicts in the combined "
                       "program differ from compiling %s alone\n",
                       unit.c_str(), bp.name.c_str());
          ok = false;
        }
      }
    }
    return ok;
  }

  std::vector<Figure> summary() const override {
    return {{"units", static_cast<double>(benchmark_suite().size() + 1),
             "units"}};
  }

 private:
  void check(Ops& ops, const Compiled& c, const std::string& what) {
    std::string problem = compile_problem(c);
    if (problem.empty() && c.report.annotated_source != annotated_)
      problem = "annotated source differs from the jobs=1 set-up compile";
    if (problem.empty() && loop_report(c.report) != loops_)
      problem = "loop report differs from the jobs=1 set-up compile";
    ops.attempt(problem.empty(), "compile-suite " + what + ": " + problem);
  }

  std::string source_;
  std::string annotated_;
  std::string loops_;
  std::map<std::string, std::vector<std::string>> verdicts_;
};

}  // namespace

std::unique_ptr<Workload> make_compile_suite() {
  return std::make_unique<CompileSuite>();
}

}  // namespace perfbench
