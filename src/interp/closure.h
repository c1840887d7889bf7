// Compiled statements: typed, pre-costed closure trees for the call-free
// expressions of a lowered program (DESIGN.md §12).
//
// At the end of lowering, every assignment (right-hand side and target),
// IF / ELSE IF condition and DO init/limit/step whose expressions call no
// user FUNCTION and are well typed is compiled once into a tree of CNodes.
// Each node's static kind (integer, real or logical) follows from declared
// types and constants, and its function is chosen then: an integer add, a
// real multiply, an element load of rank k.  Running a compiled statement
// does no operator dispatch, no Value kind test and no per-node charge.
//
// Guards keep the walker (Interpreter::eval) the only reference semantics.
// Every storage read checks what the walker checks (bound slot, array or
// not, rank, bounds, storage) and that the stored Value has the node's
// static kind; integer divide or MOD by zero and a negative integer
// exponent are guards too.  A failed guard sets CCtx::failed, and the
// statement then charges nothing, marks nothing and stores nothing: the
// interpreter re-runs it on the walker, which raises today's error or
// computes the type-punned result.  On success the statement charges its
// static cost once, and the PD-test marks it buffered are applied in the
// walker's order.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "interp/memory.h"

namespace polaris {

class ShadowArrays;
struct CNode;
struct CostModel;
struct LoweredProgram;

/// A PD-test mark taken by a compiled statement, applied on success.
struct PendingMark {
  ShadowArrays* shadow;
  std::size_t index;
  bool write;
};

/// The state of one compiled statement's evaluation.
struct CCtx {
  Cell* const* cells;                ///< the frame's slots
  std::vector<PendingMark>* marks;   ///< shadow marks, in walker order
  bool failed = false;               ///< a guard failed: re-run on the walker
};

/// A subscript `v + offset`, where v is the integer scalar variable in
/// `slot` (a constant when `scalar` is false): read in place by the
/// element node instead of through nodes of its own.
struct Affine {
  std::int64_t offset = 0;
  std::uint32_t slot = 0;
  bool scalar = false;
};

using IntFn = std::int64_t (*)(const CNode&, CCtx&);
using RealFn = double (*)(const CNode&, CCtx&);
using BoolFn = bool (*)(const CNode&, CCtx&);

/// One closure node.  Which fields mean what depends on the function.
struct CNode {
  union {
    IntFn i;
    RealFn r;
    BoolFn l;  ///< logical values, and the stores of assignments
  } fn{};
  const CNode* a = nullptr;  ///< operand / left / value stored
  const CNode* b = nullptr;  ///< right operand
  const CNode* const* args = nullptr;  ///< subscripts; MAX/MIN arguments
  const Affine* affine = nullptr;      ///< subscripts, when all affine
  union {
    std::int64_t i;
    double r;
    bool l;
  } k{};                                   ///< constants
  ShadowArrays* const* shadow = nullptr;   ///< element: the slot's shadow
  std::uint32_t slot = 0;                  ///< scalar / element: frame slot
  std::uint32_t n = 0;       ///< entries of `args` / `affine`
};

/// The nodes of one lowered program (stable addresses).
struct Closures {
  std::deque<CNode> nodes;
  std::deque<std::vector<const CNode*>> args;
  std::deque<std::vector<Affine>> affine;
};

/// Compiles every compilable statement of `program` (LStmt::code) with
/// the unit costs of `costs`.
void compile_closures(LoweredProgram& program, const CostModel& costs);

}  // namespace polaris
