// PF77 interpreter with cost accounting and parallel-loop simulation.
//
// The interpreter plays two roles in the reproduction:
//   1. Semantics oracle: transformed programs must print exactly what the
//      originals print (the property tests' equivalence check).
//   2. Timing substrate: every operation charges cost units; loops marked
//      parallel by the DOALL pass are "executed" on the simulated
//      multiprocessor (per-iteration costs measured, then scheduled over p
//      processors with overheads), and loops marked speculative run the
//      full PD-test protocol — shadow marking, post-analysis, commit or
//      restore-and-reexecute (paper Section 3.5).
//
// Each run() first lowers the program (interp/lower.h): symbols become
// frame slots, callees and GOTO targets pointers, intrinsics an enum, and
// call-free statements typed, pre-costed closures (interp/closure.h) that
// fall back to the expression walker when a guard fails.  The lowered
// form lives for that run only; the IR is not modified.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "interp/closure.h"
#include "interp/memory.h"
#include "ir/program.h"
#include "machine/machine.h"

namespace polaris {

// The lowered program (interp/lower.h).
struct LExpr;
struct LStmt;
struct LUnit;
struct LVar;

struct CostModel {
  std::uint64_t add = 1;
  std::uint64_t mul = 2;
  std::uint64_t div = 8;
  std::uint64_t pow = 12;
  std::uint64_t intrinsic = 16;
  std::uint64_t mem = 1;       ///< per scalar/array element access
  std::uint64_t branch = 1;
  std::uint64_t loop_iter = 2;
  std::uint64_t call = 24;
};

struct RunResult {
  std::vector<std::string> output;   ///< PRINT lines
  RunClock clock;                    ///< serial vs modeled parallel time
  std::uint64_t statements = 0;      ///< executed statement count
  int parallel_instances = 0;        ///< DOALL loop executions
  int speculative_attempts = 0;
  int speculative_failures = 0;
  std::uint64_t pd_test_cost = 0;    ///< total shadow+analysis cost
  std::uint64_t speculative_wasted = 0;  ///< failed-attempt parallel time
  bool stopped = false;              ///< STOP executed
};

class Interpreter {
 public:
  explicit Interpreter(Program& program, MachineConfig config = {},
                       CostModel costs = {});

  /// Executes the main program to completion.
  RunResult run();

  /// Safety valve for runaway programs (default 500M statements).
  void set_statement_limit(std::uint64_t limit) { stmt_limit_ = limit; }

 private:
  struct UnitResult {
    bool returned = false;
    bool stopped = false;
    /// A GOTO: its target, where execution continues.  A range whose
    /// bounds the target lies outside ends and hands the jump outwards;
    /// a DO it leaves ends with its index at the current value.
    const LStmt* jump = nullptr;
  };

  // Execution works on the lowered program of the current run (lower.h).
  /// Runs [first, stop); a jump to `stop` ends the range normally.
  UnitResult execute_range(Frame& frame, const LStmt* first,
                           const LStmt* stop);
  UnitResult execute_statement(Frame& frame, const LStmt*& s);
  void execute_assign(Frame& frame, const LStmt& s);

  void init_frame(const LUnit& unit, Frame& frame);
  void resolve_array_bounds(const LVar& var, Frame& frame, Cell* cell);

  Value eval(Frame& frame, const LExpr& e);
  Value eval_intrinsic(Frame& frame, const LExpr& e);
  Value eval_user_function(Frame& frame, const LExpr& e);
  /// Evaluates `ref`'s subscripts into `subs` (kMaxRank entries).
  void eval_subscripts(Frame& frame, const LExpr& ref, std::int64_t* subs);
  void store(Frame& frame, const LExpr& lhs, Value v);
  /// Ends a compiled statement's run.  Without a failed guard it charges
  /// the statement's static `cost` and applies the shadow marks it
  /// buffered, and returns true; otherwise it drops the marks, and the
  /// caller re-runs the statement on the walker.
  bool finish(const CCtx& c, std::uint64_t cost) {
    if (c.failed) [[unlikely]] {
      marks_.clear();
      return false;
    }
    charge(cost);
    if (!marks_.empty()) apply_marks();
    return true;
  }
  void apply_marks();
  /// Returns true if the callee executed STOP.
  bool run_call(Frame& frame, const LStmt& call);

  /// Parallel and speculative loop execution (see class comment).
  UnitResult run_parallel_loop(Frame& frame, const LStmt& d,
                               std::int64_t init, std::int64_t limit,
                               std::int64_t step);
  UnitResult run_speculative_loop(Frame& frame, const LStmt& d,
                                  std::int64_t init, std::int64_t limit,
                                  std::int64_t step);
  std::size_t reduction_elements(Frame& frame, const LStmt& d);

  void charge(std::uint64_t cost) { *cost_acc_ += cost; }
  void count_statement();

  Program& program_;
  MachineConfig config_;
  CostModel costs_;
  CommonStore commons_;
  RunResult result_;
  std::uint64_t segment_cost_ = 0;   ///< cost since last clock flush
  std::uint64_t* cost_acc_ = &segment_cost_;
  bool in_parallel_ = false;
  std::vector<PendingMark> marks_;  ///< of the compiled statement running
  std::uint64_t reduction_updates_ = 0;  ///< flagged-stmt executions
  std::uint64_t stmt_limit_ = 500'000'000;
};

/// Convenience: run a program and return the result.
RunResult run_program(Program& program, MachineConfig config = {});

}  // namespace polaris
