// The interpreter's lowered program: each program unit translated once per
// run into a form that executes without symbol-keyed lookups.
//
//   - Every variable of a unit gets a dense frame slot.  Slot 0 of every
//     frame stays unbound: a reference to a symbol without storage in the
//     unit (a PARAMETER used as a store target, a procedure name) resolves
//     to it and fails the same run-time check as an unbound variable.
//   - A PARAMETER whose value is a literal becomes a constant; any other
//     PARAMETER keeps its value expression and caches the result (and the
//     units its evaluation charged) on first read when that expression
//     reads no storage.
//   - An array reference is a slot plus its subscripts, evaluated into a
//     fixed buffer; strides live with the array's storage.
//   - Intrinsics are an enum; callees and GOTO targets are pointers,
//     null when unresolved (the error is raised only if the code runs).
//   - Each array slot has a shadow pointer, null outside speculation.
//   - Call-free assignments, IF conditions and DO headers are compiled
//     into typed, pre-costed closures (closure.h); the nodes above stay
//     the walker's, which runs everything else and every failed guard.
//
// The lowered program borrows the IR (names, parallel annotations) and
// must not outlive the run that built it.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "interp/closure.h"
#include "interp/value.h"
#include "ir/program.h"

namespace polaris {

class ShadowArrays;
struct CostModel;
struct LUnit;

enum class LOp : std::uint8_t {
  Const,    ///< `value`; PARAMETERs fold here when their value is a literal
  Param,    ///< PARAMETER: `a` coerced to `type`, cached when `cacheable`
  Scalar,   ///< variable in `slot`
  Element,  ///< array element: `slot`, subscripts in `args`
  Add, Sub, Mul, Div, Pow,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or,
  Neg, Not,
  Intrinsic,  ///< `fn` applied to `args`
  Function,   ///< user function `callee` (null: unknown) applied to `args`
  Fail,       ///< raises InternalError(`fail_cond`, `fail_msg`) when run
};

enum class Intrinsic : std::uint8_t {
  Abs, Max, Min, Mod, Sqrt, Exp, Log, Log10, Sin, Cos, Tan, Atan, Atan2,
  Sign, Int, Nint, Real, Dble, Iand, Ior, Ieor,
  Unknown,  ///< an intrinsic name the interpreter does not implement
};

/// What only error messages, calls and PARAMETER reads need, kept
/// out of the hot node.  The Scalar and Element nodes of one symbol share
/// one record.
struct LExprInfo {
  Symbol* sym = nullptr;            ///< Scalar / Element / Param (messages)
  const FuncCall* call = nullptr;   ///< Intrinsic / Function (names)
  LUnit* callee = nullptr;          ///< Function
  const char* fail_cond = "false";  ///< Fail
  std::string fail_msg;             ///< Fail

  // Param cache, filled by the first read of a cacheable PARAMETER.
  mutable bool cached = false;
  mutable Value cached_value;
  mutable std::uint64_t cached_cost = 0;
};

struct LExpr {
  LOp op = LOp::Fail;
  Intrinsic fn = Intrinsic::Unknown;
  bool cacheable = false;        ///< Param: value reads no storage
  Type type;                     ///< Param coercion; Scalar/Element stores
  std::size_t slot = 0;          ///< Scalar / Element
  const LExpr* a = nullptr;      ///< operand / left / Param value
  const LExpr* b = nullptr;      ///< right operand
  Value value;                   ///< Const
  std::vector<const LExpr*> args;  ///< subscripts or call arguments
  ShadowArrays** shadow = nullptr;  ///< Element: the slot's PD-test shadow
  const LExprInfo* info = nullptr;  ///< Scalar/Element/Param/calls/Fail
};
static_assert(sizeof(LExpr) <= 88, "LExpr carries cold fields again");

/// A slot-backed variable of a unit: what frame set-up needs.
struct LVar {
  Symbol* sym = nullptr;
  std::size_t slot = 0;
  struct Dim {
    const LExpr* lower = nullptr;  ///< null: the default lower bound 1
    const LExpr* upper = nullptr;  ///< null: assumed size
  };
  std::vector<Dim> dims;
  std::vector<const LExpr*> data;  ///< DATA values, in element order
};

/// An array under the PD test: its slot and that slot's shadow pointer.
struct LTested {
  Symbol* sym = nullptr;
  std::size_t slot = 0;
  ShadowArrays** shadow = nullptr;
};

struct LStmt {
  StmtKind kind = StmtKind::Comment;
  bool reduction = false;       ///< Assign: flagged reduction statement
  const LStmt* next = nullptr;  ///< sequential successor (null: unit end)

  // Compiled form (closure.h), null when the statement runs on the walker:
  // Assign: [0] the store; If/ElseIf: [0] the condition; Do: [0..2] init,
  // limit and step.  `code_cost` is what the walker would charge for them.
  const CNode* code[3] = {};
  std::uint64_t code_cost = 0;

  // Assign: `lhs` is a Scalar or Element node (or Fail), `rhs` the value.
  const LExpr* lhs = nullptr;
  const LExpr* rhs = nullptr;

  // Do.
  const LExpr* init = nullptr;
  const LExpr* limit = nullptr;
  const LExpr* step = nullptr;
  std::size_t index_slot = 0;
  const LStmt* follow = nullptr;  ///< the matching ENDDO
  const DoStmt* loop = nullptr;   ///< parallel annotations
  std::vector<std::size_t> reduction_slots;
  std::vector<LTested> speculative_arrays;
  // The checkpoint set of a speculative loop.
  std::vector<std::size_t> written_arrays;
  std::vector<std::size_t> assigned_scalars;

  // If / ElseIf / Else.
  const LExpr* cond = nullptr;
  const LStmt* next_arm = nullptr;
  const LStmt* end = nullptr;

  // Goto: null when the label does not exist.
  const LStmt* target = nullptr;

  // Call.
  const CallStmt* call = nullptr;
  LUnit* callee = nullptr;  ///< null: unknown or not a subroutine
  std::vector<const LExpr*> args;

  // Print: each item is literal text or a value.
  struct Item {
    const std::string* text = nullptr;
    const LExpr* value = nullptr;
  };
  std::vector<Item> items;
};

struct LUnit {
  ProgramUnit* ir = nullptr;
  std::size_t slots = 1;  ///< frame size, including the unbound slot 0
  std::vector<LVar> vars;  ///< in declaration order, formals included
  std::vector<const LVar*> formals;  ///< per formal, in order
  std::size_t result_slot = 0;       ///< functions
  std::vector<LStmt> stmts;
  /// Per slot: the active PD-test shadow, or null.
  std::unique_ptr<ShadowArrays*[]> shadows;

  const LStmt* first() const { return stmts.empty() ? nullptr : &stmts[0]; }
};

/// One run's lowered program.
struct LoweredProgram {
  std::deque<LExpr> exprs;  ///< every node (stable addresses)
  std::deque<LExprInfo> infos;
  Closures closures;        ///< the compiled statements' code
  std::vector<std::unique_ptr<LUnit>> units;
  LUnit* main = nullptr;
};

/// Lowers every unit of `program`, then compiles its call-free statements
/// (closure.h) with the unit costs of `costs`.  Lowering reports no
/// errors: anything that would fail at run time is lowered to code that
/// fails when run.
std::unique_ptr<LoweredProgram> lower_program(Program& program,
                                              const CostModel& costs);

}  // namespace polaris
