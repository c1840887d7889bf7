// Figure 7 reproduction: speedup of Polaris vs the PFA-like baseline on
// the 16-program evaluation suite, 8 processors — the paper's headline
// chart.  Prints one bar pair per program plus the aggregate shape
// statistics the paper reports in prose.
//
// The Figure 7 speedup divides the *untransformed* program's serial time
// by the transformed program's parallel time, so it compounds two gains:
// the transformed program's serial saving (e.g. strength reduction) and
// its own parallel gain.  The last two columns separate them for the
// Polaris run: serial saving = reference serial / transformed serial
// units, parallel gain = transformed serial / transformed parallel units
// at p=8; their product is the Polaris column.
#include <cstdio>

#include "harness.h"
#include "suite/suite.h"

int main() {
  using namespace polaris;
  bench::heading(
      "Figure 7: Speedup, Polaris vs PFA-like baseline (8 processors)");

  struct Row {
    std::string name;
    double polaris;
    double pfa;
    double serial_saving;  ///< reference serial / transformed serial units
    double parallel_gain;  ///< transformed serial / parallel units at p=8
  };
  std::vector<Row> rows;
  for (const BenchProgram& p : benchmark_suite()) {
    bench::Measurement pol = bench::measure(p.source, CompilerMode::Polaris, 8);
    bench::Measurement base =
        bench::measure(p.source, CompilerMode::Baseline, 8);
    rows.push_back({p.name, pol.speedup(), base.speedup(),
                    static_cast<double>(pol.reference.clock.serial) /
                        static_cast<double>(pol.run.clock.serial),
                    pol.run.clock.speedup()});
  }

  std::printf("%-9s %8s %8s  %-42s %7s %7s\n", "program", "Polaris", "PFA",
              "", "P-ser", "P-par");
  std::printf("%s\n", std::string(86, '-').c_str());
  for (const Row& r : rows) {
    std::printf("%-9s %8.2f %8.2f  P|%-40s %7.2f %7.2f\n", r.name.c_str(),
                r.polaris, r.pfa, bench::bar(r.polaris, 8.0).c_str(),
                r.serial_saving, r.parallel_gain);
    std::printf("%-9s %8s %8s  F|%-40s\n", "", "", "",
                bench::bar(r.pfa, 8.0).c_str());
  }

  int polaris_better = 0, pfa_better = 0, near_one = 0, good = 0;
  for (const Row& r : rows) {
    if (r.polaris > r.pfa * 1.10) ++polaris_better;
    if (r.pfa > r.polaris * 1.02) ++pfa_better;
    if (r.polaris < 2.0) ++near_one;
    if (r.polaris >= 3.0) ++good;
  }
  std::printf("%s\n", std::string(86, '-').c_str());
  std::printf(
      "P-ser: Polaris serial saving (reference / transformed serial units);\n"
      "P-par: Polaris parallel gain at p=8 (transformed serial / parallel).\n"
      "shape summary: Polaris substantially better on %d/16 codes;\n"
      "PFA better on %d codes (paper: 2); Polaris speedup close to 1 on %d\n"
      "codes; Polaris >= 3x on %d codes (paper: 'successful in half of the\n"
      "codes tested').\n\n",
      polaris_better, pfa_better, near_one, good);
  return 0;
}
