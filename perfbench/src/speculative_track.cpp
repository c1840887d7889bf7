// speculative-track: the paper's Figure 6.  A seeded family of TRACK
// NLFILT-style programs (bench/bench_fig6_pdtest.cpp is the template):
// a loop nest whose inner loop writes nf(key(i)) through a subscript array
// rebuilt from a stride on every invocation.  A stride coprime to the
// array length makes key a permutation (the PD test passes); the others,
// about 10% of the invocations, collide, so the speculative attempt fails
// and the invocation re-executes serially.  Each member is compiled with
// runtime_pd_test (at jobs=1, and at jobs=min(4, hw) as a determinism
// check) and run at p=8.
//
// Checks, all computed apart from the compiler: the printed checksum
// equals a native C++ evaluation of the same loop nest; the speculative
// attempts equal the invocation count; the speculative failures equal the
// number of strides that share a factor with the array length; a replay
// of the access stream through ShadowArrays gives the same verdicts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "parser/parser.h"
#include "runtime/pdtest.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace polaris;

constexpr int kMembers = 4;
constexpr int kProcessors = 8;
/// Element-invocations per member: np * ninv is the same for every
/// member and every seed, so the work of a pass does not depend on it.
constexpr int kWork = 40000;
/// Invocation counts dividing kWork, and the colliding strides of each
/// (about 10%).
constexpr int kInvocations[] = {16, 20, 25, 32, 40};
constexpr int kCollisions[] = {2, 2, 3, 3, 4};
/// Relative tolerance on the printed checksum: the interpreter prints 9
/// significant digits, and a parallel reduction may reassociate the sum.
constexpr double kTolerance = 1e-7;

struct Member {
  std::string name;
  int np = 0;
  int mult = 0;               ///< dat(i) = mod(i*mult, 97)*0.01
  std::vector<int> strides;   ///< one per invocation
  int collisions = 0;         ///< strides with gcd(stride, np) > 1
  double checksum = 0;        ///< native evaluation
  std::string source;
};

std::vector<int> keys(int np, int stride) {
  std::vector<int> key(static_cast<std::size_t>(np));
  for (int i = 1; i <= np; ++i)
    key[static_cast<std::size_t>(i - 1)] = (i * stride) % np + 1;
  return key;
}

/// The loop nest evaluated natively, in the interpreter's evaluation
/// order (left-associated sums, double precision).
double native_checksum(const Member& m) {
  const int np = m.np;
  std::vector<double> dat(static_cast<std::size_t>(np) + 1);
  std::vector<double> nf(static_cast<std::size_t>(np) + 1, 0.0);
  for (int i = 1; i <= np; ++i) dat[i] = ((i * m.mult) % 97) * 0.01;
  for (std::size_t k = 1; k <= m.strides.size(); ++k) {
    const std::vector<int> key = keys(np, m.strides[k - 1]);
    const int kk = static_cast<int>(k);
    for (int i = 1; i <= np; ++i) {
      const int t = key[static_cast<std::size_t>(i - 1)];
      nf[t] = nf[t] * 0.25 + dat[i] * 0.5 + dat[(i + kk) % np + 1] * 0.125 +
              dat[(i * 3 + kk) % np + 1] * 0.0625 +
              (dat[i] * 0.5 + 0.25) * (dat[i] * 0.125 + 0.5);
    }
  }
  double cks = 0.0;
  for (int i = 1; i <= np; ++i) cks += nf[i];
  return cks;
}

std::string track_source(const Member& m) {
  std::ostringstream os;
  os << "      program " << m.name << "\n"
     << "      parameter (np = " << m.np << ", ninv = " << m.strides.size()
     << ")\n"
     << "      real dat(np), nf(np)\n"
     << "      integer key(np), st(ninv)\n"
     << "      data st /";
  for (std::size_t i = 0; i < m.strides.size(); ++i) {
    if (i > 0) os << (i % 10 == 0 ? ",\n     &  " : ", ");
    os << m.strides[i];
  }
  os << "/\n"
     << "      do i = 1, np\n"
     << "        dat(i) = mod(i*" << m.mult << ", 97)*0.01\n"
     << "        nf(i) = 0.0\n"
     << "      end do\n"
     << "      do k = 1, ninv\n"
     << "        do i = 1, np\n"
     << "          key(i) = mod(i*st(k), np) + 1\n"
     << "        end do\n"
     << "        do i = 1, np\n"
     << "          nf(key(i)) = nf(key(i))*0.25 + dat(i)*0.5\n"
     << "     &      + dat(mod(i + k, np) + 1)*0.125\n"
     << "     &      + dat(mod(i*3 + k, np) + 1)*0.0625\n"
     << "     &      + (dat(i)*0.5 + 0.25)*(dat(i)*0.125 + 0.5)\n"
     << "        end do\n"
     << "      end do\n"
     << "      cks = 0.0\n"
     << "      do i = 1, np\n"
     << "        cks = cks + nf(i)\n"
     << "      end do\n"
     << "      print *, 'track', cks\n"
     << "      end\n";
  return os.str();
}

Member make_member(int index, Rng& rng) {
  Member m;
  m.name = "track" + std::to_string(index + 1);
  const std::size_t pick = rng.below(std::size(kInvocations));
  const int ninv = kInvocations[pick];
  m.np = kWork / ninv;
  m.mult = 3 + static_cast<int>(rng.below(8));
  m.collisions = kCollisions[pick];
  std::vector<int> coprime, shared;
  while (static_cast<int>(coprime.size()) < ninv - m.collisions ||
         static_cast<int>(shared.size()) < m.collisions) {
    const int s = 3 + static_cast<int>(rng.below(static_cast<std::uint64_t>(m.np - 3)));
    std::vector<int>& bucket = std::gcd(s, m.np) == 1 ? coprime : shared;
    const int want = &bucket == &coprime ? ninv - m.collisions : m.collisions;
    if (static_cast<int>(bucket.size()) < want &&
        std::find(bucket.begin(), bucket.end(), s) == bucket.end())
      bucket.push_back(s);
  }
  m.strides = coprime;
  m.strides.insert(m.strides.end(), shared.begin(), shared.end());
  std::vector<int> order;
  for (std::size_t i : shuffled(m.strides.size(), rng))
    order.push_back(m.strides[i]);
  m.strides = order;
  m.checksum = native_checksum(m);
  m.source = track_source(m);
  return m;
}

/// Replays one member's nf(key(i)) access stream through ShadowArrays,
/// one shadow per invocation as the PD test keeps them.  Returns the
/// host nanoseconds spent; adds the accesses to `*accesses` and the
/// number of invocations the PD analysis rejects to `*failures`.
double replay(const Member& m, std::uint64_t* accesses, int* failures) {
  const Clock::time_point t0 = Clock::now();
  for (int stride : m.strides) {
    const std::vector<int> key = keys(m.np, stride);
    ShadowArrays sh(static_cast<std::size_t>(m.np));
    for (int k : key) {
      const std::size_t idx = static_cast<std::size_t>(k - 1);
      sh.begin_iteration();
      sh.record_read(idx);
      sh.record_write(idx);
      sh.end_iteration();
    }
    if (!sh.analyze().pass()) ++*failures;
    *accesses += sh.total_accesses();
  }
  return ms_since(t0) * 1e6;
}

/// The number the program printed after 'track', or NaN.
double printed_checksum(const RunResult& r) {
  if (r.output.size() != 1) return std::nan("");
  std::istringstream in(r.output[0]);
  std::string tag;
  double v = std::nan("");
  if (!(in >> tag >> v) || tag != "track") return std::nan("");
  return v;
}

bool checksum_ok(double printed, double native) {
  return std::fabs(printed - native) <=
         kTolerance * std::max(1.0, std::fabs(native));
}

Options pd_options(int jobs) {
  Options o = Options::polaris();
  o.runtime_pd_test = true;
  o.jobs = jobs;
  return o;
}

class SpeculativeTrack : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    family_.clear();
    for (int i = 0; i < kMembers; ++i) family_.push_back(make_member(i, rng));
    for (const Member& m : family_) compile(m.source, pd_options(1), nullptr);
    parallel_units_.assign(family_.size(), 0);
  }

  PassFigures pass(Ops& ops, Layers* layers) override {
    PassFigures fig;
    for (std::size_t mi = 0; mi < family_.size(); ++mi) {
      const Member& m = family_[mi];
      Compiled c = compile(m.source, pd_options(1), layers);
      std::string problem = compile_problem(c);
      ops.attempt(problem.empty(), m.name + " compile: " + problem);
      Compiled c4 = compile(m.source, pd_options(jobs4()), layers);
      problem = compile_problem(c4);
      if (problem.empty() &&
          (c4.report.annotated_source != c.report.annotated_source ||
           loop_report(c4.report) != loop_report(c.report)))
        problem = "jobs=4 output differs from jobs=1";
      ops.attempt(problem.empty(), m.name + " jobs=4 compile: " + problem);
      fig.compile_ms += c.ms;
      fig.compile_jobs4_ms += c4.ms;
      fig.parallel_loops += parallel_loop_count(c.report);

      Simulated run;
      if (c.program == nullptr) {
        run.error = "compile failed";
      } else {
        MachineConfig cfg;
        cfg.processors = kProcessors;
        run = simulate(*c.program, cfg, layers != nullptr);
      }
      const RunResult& r = run.result;
      problem = run.error;
      const int ninv = static_cast<int>(m.strides.size());
      if (problem.empty() && !checksum_ok(printed_checksum(r), m.checksum))
        problem = "checksum differs from the native evaluation";
      if (problem.empty() && r.speculative_attempts != ninv)
        problem = std::to_string(r.speculative_attempts) +
                  " speculative attempts, expected " + std::to_string(ninv);
      if (problem.empty() && r.speculative_failures != m.collisions)
        problem = std::to_string(r.speculative_failures) +
                  " speculative failures, expected " +
                  std::to_string(m.collisions);
      if (problem.empty() && r.clock.parallel * kProcessors < r.clock.serial)
        problem = "clock.parallel < clock.serial / p";
      ops.attempt(problem.empty(), m.name + " run: " + problem);

      fig.run_ms += run.ms;
      fig.statements += static_cast<double>(r.statements);
      parallel_units_[mi] = static_cast<double>(r.clock.parallel);
      add(layers, "interp.xform_run_ms", run.ms);
      add(layers, "interp.statements", static_cast<double>(r.statements));
      add(layers, "_run_allocs", static_cast<double>(run.allocs));
      add(layers, "machine.serial_units", static_cast<double>(r.clock.serial));
      add(layers, "machine.parallel_units",
          static_cast<double>(r.clock.parallel));
      add(layers, "machine.parallel_instances", r.parallel_instances);
      add(layers, "runtime.spec_attempts", r.speculative_attempts);
      add(layers, "runtime.spec_failures", r.speculative_failures);
      add(layers, "runtime.pd_test_units", static_cast<double>(r.pd_test_cost));
      add(layers, "runtime.spec_wasted_units",
          static_cast<double>(r.speculative_wasted));
    }
    return fig;
  }

  std::vector<std::string> sources() const override {
    std::vector<std::string> out;
    for (const Member& m : family_) out.push_back(m.source);
    return out;
  }

  void probe(Layers& layers) override {
    std::vector<double> ns_per_access;
    for (int rep = 0; rep < 5; ++rep) {
      std::uint64_t accesses = 0;
      int failures = 0;
      double ns = 0;
      for (const Member& m : family_) ns += replay(m, &accesses, &failures);
      ns_per_access.push_back(ns / static_cast<double>(accesses));
    }
    layers["runtime.shadow_ns_per_access"] = median(ns_per_access);
  }

  bool final_checks() override {
    bool ok = true;
    std::vector<double> speedups;
    for (std::size_t mi = 0; mi < family_.size(); ++mi) {
      const Member& m = family_[mi];
      // Untransformed reference: same checksum, and the serial time the
      // speedup is taken against.
      Simulated ref;
      try {
        std::unique_ptr<Program> prog = parse_program(m.source);
        ref = simulate(*prog, MachineConfig{}, false);
      } catch (const std::exception& e) {
        ref.error = e.what();
      }
      if (!ref.error.empty() ||
          !checksum_ok(printed_checksum(ref.result), m.checksum)) {
        std::fprintf(stderr,
                     "perfbench: %s reference run: %s (native %.9g)\n",
                     m.name.c_str(),
                     ref.error.empty() ? "checksum differs" : ref.error.c_str(),
                     m.checksum);
        ok = false;
      }
      if (parallel_units_[mi] > 0)
        speedups.push_back(static_cast<double>(ref.result.clock.serial) /
                           parallel_units_[mi]);
      std::uint64_t accesses = 0;
      int failures = 0;
      replay(m, &accesses, &failures);
      if (failures != m.collisions) {
        std::fprintf(stderr,
                     "perfbench: %s: ShadowArrays replay rejects %d "
                     "invocations, %d strides collide\n",
                     m.name.c_str(), failures, m.collisions);
        ok = false;
      }
    }
    sim_speedup_ = geomean(speedups);
    return ok;
  }

  std::vector<Figure> summary() const override {
    int invocations = 0, collisions = 0;
    for (const Member& m : family_) {
      invocations += static_cast<int>(m.strides.size());
      collisions += m.collisions;
    }
    return {{"sim_speedup_p8", sim_speedup_, "x"},
            {"members", static_cast<double>(family_.size()), "programs"},
            {"invocations", static_cast<double>(invocations), "count"},
            {"colliding_invocations", static_cast<double>(collisions), "count"}};
  }

 private:
  std::vector<Member> family_;
  std::vector<double> parallel_units_;  ///< last pass, per member
  double sim_speedup_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_speculative_track() {
  return std::make_unique<SpeculativeTrack>();
}

}  // namespace perfbench
