#include "interp/interp.h"

#include <cmath>
#include <sstream>

#include "interp/lower.h"
#include "runtime/pdtest.h"

namespace polaris {

namespace {

std::int64_t ipow(std::int64_t base, std::int64_t exp) {
  interp_check_msg(exp >= 0, "negative integer exponent");
  return int_power(base, exp);
}

std::string format_value(const Value& v) {
  if (v.is_integer()) return std::to_string(v.as_int());
  if (v.is_logical()) return v.as_logical() ? "T" : "F";
  std::ostringstream os;
  os.precision(9);
  os << v.as_real();
  return os.str();
}

/// Intrinsic arguments are evaluated into a stack buffer of this size;
/// longer MAX/MIN argument lists spill to the heap.
constexpr std::size_t kInlineArgs = 8;

}  // namespace

Interpreter::Interpreter(Program& program, MachineConfig config,
                         CostModel costs)
    : program_(program), config_(config), costs_(costs) {}

RunResult run_program(Program& program, MachineConfig config) {
  Interpreter interp(program, config);
  return interp.run();
}

void Interpreter::count_statement() {
  ++result_.statements;
  if (result_.statements > stmt_limit_)
    throw UserError("interpreter statement limit exceeded");
}

RunResult Interpreter::run() {
  result_ = RunResult{};
  segment_cost_ = 0;
  cost_acc_ = &segment_cost_;
  std::unique_ptr<LoweredProgram> lowered = lower_program(program_, costs_);
  const LUnit& main = *lowered->main;
  Frame frame(main.slots);
  init_frame(main, frame);
  UnitResult r = execute_range(frame, main.first(), nullptr);
  result_.stopped = r.stopped;
  result_.clock.add_sequential(segment_cost_);
  segment_cost_ = 0;
  return result_;
}

void Interpreter::init_frame(const LUnit& unit, Frame& frame) {
  for (const LVar& var : unit.vars) {
    if (frame.bound(var.slot)) continue;  // formal already bound by the caller
    Symbol* sym = var.sym;
    if (sym->kind() != SymbolKind::Variable) continue;
    Cell* cell = nullptr;
    if (sym->in_common()) {
      cell = commons_.lookup(sym->common_block(), sym->name());
      bool fresh = (cell == nullptr);
      if (fresh) cell = commons_.create(sym->common_block(), sym->name());
      frame.bind(var.slot, cell);
      if (!fresh) continue;  // already initialized by another unit
    } else {
      cell = frame.create_local(var.slot);
    }
    if (sym->is_array()) {
      cell->is_array = true;
      resolve_array_bounds(var, frame, cell);
      std::size_t n = static_cast<std::size_t>(cell->array.element_count());
      cell->array.data = std::make_shared<std::vector<Value>>(
          n, Value::zero_of(sym->type()));
    } else {
      cell->scalar = Value::zero_of(sym->type());
    }
    // DATA initialization.
    if (!var.data.empty()) {
      if (sym->is_array()) {
        interp_check_msg(var.data.size() == cell->array.data->size(),
                         "DATA value count mismatch for " + sym->name());
        for (std::size_t i = 0; i < cell->array.data->size(); ++i)
          (*cell->array.data)[i] =
              eval(frame, *var.data[i]).coerce_to(sym->type());
      } else {
        cell->scalar = eval(frame, *var.data[0]).coerce_to(sym->type());
      }
    }
  }
}

void Interpreter::resolve_array_bounds(const LVar& var, Frame& frame,
                                       Cell* cell) {
  Symbol* sym = var.sym;
  cell->array.clear_bounds();
  for (std::size_t d = 0; d < var.dims.size(); ++d) {
    const LVar::Dim& dim = var.dims[d];
    std::int64_t lo = dim.lower ? eval(frame, *dim.lower).as_int() : 1;
    std::int64_t hi;
    if (dim.upper) {
      hi = eval(frame, *dim.upper).as_int();
    } else {
      // Assumed size: must be the last dimension of a bound formal whose
      // payload already exists.
      interp_check_msg(d + 1 == var.dims.size(),
                       "assumed-size dimension must be last: " + sym->name());
      interp_check_msg(cell->array.data != nullptr,
                       "assumed-size array without payload: " + sym->name());
      std::int64_t remaining =
          static_cast<std::int64_t>(cell->array.data->size()) -
          cell->array.offset;
      hi = lo + remaining / cell->array.element_count() - 1;
    }
    interp_check_msg(hi >= lo, "empty array dimension for " + sym->name());
    cell->array.add_dim(lo, hi);
  }
}

Interpreter::UnitResult Interpreter::execute_range(Frame& frame,
                                                   const LStmt* first,
                                                   const LStmt* stop) {
  const LStmt* s = first;
  while (s != stop && s != nullptr) {
    // Assignments, most of what runs, skip the dispatch below.
    if (s->kind == StmtKind::Assign) {
      count_statement();
      execute_assign(frame, *s);
      s = s->next;
      continue;
    }
    UnitResult r = execute_statement(frame, s);
    if (r.returned || r.stopped) return r;
    if (r.jump != nullptr && (s < first || (stop != nullptr && s > stop)))
      return r;
  }
  return {};
}

inline void Interpreter::execute_assign(Frame& frame, const LStmt& s) {
  if (in_parallel_ && s.reduction) ++reduction_updates_;
  if (const CNode* code = s.code[0]) {
    CCtx c{frame.cells(), &marks_};
    code->fn.l(*code, c);
    if (finish(c, s.code_cost)) return;
  }
  Value v = eval(frame, *s.rhs);
  store(frame, *s.lhs, v);
}

Interpreter::UnitResult Interpreter::execute_statement(Frame& frame,
                                                       const LStmt*& s) {
  count_statement();
  switch (s->kind) {
    case StmtKind::Assign:
      execute_assign(frame, *s);
      s = s->next;
      return {};
    case StmtKind::Do: {
      const LStmt* d = s;
      std::int64_t init = 0, limit = 0, step = 0;
      bool done = false;
      if (d->code[0] != nullptr) {
        CCtx c{frame.cells(), &marks_};
        init = d->code[0]->fn.i(*d->code[0], c);
        limit = d->code[1]->fn.i(*d->code[1], c);
        step = d->code[2]->fn.i(*d->code[2], c);
        done = finish(c, d->code_cost);
      }
      if (!done) {
        init = eval(frame, *d->init).as_int();
        limit = eval(frame, *d->limit).as_int();
        step = eval(frame, *d->step).as_int();
      }
      interp_check_msg(step != 0, "DO step is zero");

      const ParallelInfo& par = d->loop->par;
      const bool wants_parallel = (par.is_parallel || par.speculative) &&
                                  !in_parallel_ && config_.processors > 1;
      if (wants_parallel) {
        UnitResult r =
            par.speculative
                ? run_speculative_loop(frame, *d, init, limit, step)
                : run_parallel_loop(frame, *d, init, limit, step);
        if (r.returned || r.stopped) return r;
        s = r.jump != nullptr ? r.jump : d->follow->next;
        return r;
      }

      Cell* idx = frame.lookup(d->index_slot);
      interp_check(idx != nullptr && !idx->is_array);
      for (std::int64_t v = init; step > 0 ? v <= limit : v >= limit;
           v += step) {
        idx->scalar = Value::integer(v);
        charge(costs_.loop_iter);
        UnitResult r = execute_range(frame, d->next, d->follow);
        if (r.returned || r.stopped) return r;
        if (r.jump != nullptr) {
          s = r.jump;
          return r;
        }
      }
      idx->scalar = Value::integer(
          step > 0 ? std::max(init, limit + step) : std::min(init, limit + step));
      s = d->follow->next;
      return {};
    }
    case StmtKind::EndDo:
      s = s->next;
      return {};
    case StmtKind::If: {
      // Dispatch over the whole arm chain here; arm headers reached by
      // *sequential flow* (below) mean the previous arm completed and jump
      // to the END IF instead.
      const LStmt* arm = s;
      while (true) {
        if (arm->kind == StmtKind::If || arm->kind == StmtKind::ElseIf) {
          bool taken = false;
          bool done = false;
          if (const CNode* code = arm->code[0]) {
            CCtx c{frame.cells(), &marks_};
            taken = code->fn.l(*code, c);
            done = finish(c, arm->code_cost);
          }
          if (!done) {
            charge(costs_.branch);
            taken = eval(frame, *arm->cond).as_logical();
          }
          if (taken) {
            s = arm->next;
            return {};
          }
          arm = arm->next_arm;
        } else {
          // ELSE (unconditionally taken) or END IF (no arm taken).
          s = arm->next;
          return {};
        }
      }
    }
    case StmtKind::ElseIf:
    case StmtKind::Else:
      s = s->end;  // previous arm completed
      return {};
    case StmtKind::EndIf:
      s = s->next;
      return {};
    case StmtKind::Goto: {
      charge(costs_.branch);
      interp_check_msg(s->target != nullptr, "GOTO to unknown label");
      s = s->target;
      UnitResult r;
      r.jump = s;
      return r;
    }
    case StmtKind::Continue:
    case StmtKind::Comment:
      s = s->next;
      return {};
    case StmtKind::Call: {
      bool stopped = run_call(frame, *s);
      if (stopped) {
        UnitResult r;
        r.stopped = true;
        return r;
      }
      s = s->next;
      return {};
    }
    case StmtKind::Return: {
      UnitResult r;
      r.returned = true;
      return r;
    }
    case StmtKind::Stop: {
      UnitResult r;
      r.stopped = true;
      return r;
    }
    case StmtKind::Print: {
      std::ostringstream line;
      bool first_item = true;
      for (const LStmt::Item& item : s->items) {
        if (!first_item) line << " ";
        first_item = false;
        if (item.text != nullptr)
          line << *item.text;
        else
          line << format_value(eval(frame, *item.value));
      }
      result_.output.push_back(line.str());
      s = s->next;
      return {};
    }
  }
  p_unreachable("bad statement kind");
}

void Interpreter::apply_marks() {
  for (const PendingMark& m : marks_) {
    if (m.write)
      m.shadow->record_write(m.index);
    else
      m.shadow->record_read(m.index);
  }
  marks_.clear();
}

// --- expression evaluation ------------------------------------------------------

Value Interpreter::eval(Frame& frame, const LExpr& e) {
  switch (e.op) {
    case LOp::Const:
      return e.value;
    case LOp::Param: {
      const LExprInfo& param = *e.info;
      if (param.cached) {
        charge(param.cached_cost);
        return param.cached_value;
      }
      const std::uint64_t before = *cost_acc_;
      Value v = eval(frame, *e.a).coerce_to(e.type);
      if (e.cacheable) {
        param.cached = true;
        param.cached_value = v;
        param.cached_cost = *cost_acc_ - before;
      }
      return v;
    }
    case LOp::Scalar: {
      Cell* cell = frame.lookup(e.slot);
      interp_check_msg(cell != nullptr, "unbound variable " + e.info->sym->name());
      interp_check_msg(!cell->is_array,
                       "whole array used as a value: " + e.info->sym->name());
      charge(costs_.mem);
      return cell->scalar;
    }
    case LOp::Element: {
      Cell* cell = frame.lookup(e.slot);
      interp_check_msg(cell != nullptr && cell->is_array,
                       "array not bound: " + e.info->sym->name());
      std::int64_t subs[kMaxRank];
      eval_subscripts(frame, e, subs);
      std::size_t flat = cell->array.flat_index(subs, e.args.size());
      charge(costs_.mem);
      if (ShadowArrays* shadow = *e.shadow) shadow->record_read(flat);
      return (*cell->array.data)[flat];
    }
    case LOp::Add:
    case LOp::Sub:
    case LOp::Mul:
    case LOp::Div:
    case LOp::Pow:
    case LOp::Eq:
    case LOp::Ne:
    case LOp::Lt:
    case LOp::Le:
    case LOp::Gt:
    case LOp::Ge:
    case LOp::And:
    case LOp::Or: {
      Value l = eval(frame, *e.a);
      Value r = eval(frame, *e.b);
      const bool ints = l.is_integer() && r.is_integer();
      switch (e.op) {
        case LOp::Add:
          charge(costs_.add);
          if (ints) return Value::integer(l.as_int() + r.as_int());
          return Value::real(l.as_real() + r.as_real());
        case LOp::Sub:
          charge(costs_.add);
          if (ints) return Value::integer(l.as_int() - r.as_int());
          return Value::real(l.as_real() - r.as_real());
        case LOp::Mul:
          charge(costs_.mul);
          if (ints) return Value::integer(l.as_int() * r.as_int());
          return Value::real(l.as_real() * r.as_real());
        case LOp::Div:
          charge(costs_.div);
          if (ints) {
            interp_check_msg(r.as_int() != 0, "integer division by zero");
            return Value::integer(l.as_int() / r.as_int());
          }
          return Value::real(l.as_real() / r.as_real());
        case LOp::Pow:
          charge(costs_.pow);
          if (ints) return Value::integer(ipow(l.as_int(), r.as_int()));
          return Value::real(std::pow(l.as_real(), r.as_real()));
        case LOp::Eq:
          charge(costs_.add);
          if (ints) return Value::logical(l.as_int() == r.as_int());
          return Value::logical(l.as_real() == r.as_real());
        case LOp::Ne:
          charge(costs_.add);
          if (ints) return Value::logical(l.as_int() != r.as_int());
          return Value::logical(l.as_real() != r.as_real());
        case LOp::Lt:
          charge(costs_.add);
          if (ints) return Value::logical(l.as_int() < r.as_int());
          return Value::logical(l.as_real() < r.as_real());
        case LOp::Le:
          charge(costs_.add);
          if (ints) return Value::logical(l.as_int() <= r.as_int());
          return Value::logical(l.as_real() <= r.as_real());
        case LOp::Gt:
          charge(costs_.add);
          if (ints) return Value::logical(l.as_int() > r.as_int());
          return Value::logical(l.as_real() > r.as_real());
        case LOp::Ge:
          charge(costs_.add);
          if (ints) return Value::logical(l.as_int() >= r.as_int());
          return Value::logical(l.as_real() >= r.as_real());
        case LOp::And:
          charge(costs_.add);
          return Value::logical(l.as_logical() && r.as_logical());
        default:  // LOp::Or
          charge(costs_.add);
          return Value::logical(l.as_logical() || r.as_logical());
      }
    }
    case LOp::Neg:
    case LOp::Not: {
      Value v = eval(frame, *e.a);
      charge(costs_.add);
      if (e.op == LOp::Neg) {
        if (v.is_integer()) return Value::integer(-v.as_int());
        return Value::real(-v.as_real());
      }
      return Value::logical(!v.as_logical());
    }
    case LOp::Intrinsic:
      return eval_intrinsic(frame, e);
    case LOp::Function:
      return eval_user_function(frame, e);
    case LOp::Fail:
      detail::assert_failed(e.info->fail_cond, __FILE__, __LINE__,
                            e.info->fail_msg);
  }
  p_unreachable("bad expression kind");
}

Value Interpreter::eval_intrinsic(Frame& frame, const LExpr& e) {
  charge(costs_.intrinsic);
  const std::size_t n = e.args.size();
  Value inline_args[kInlineArgs];
  std::vector<Value> spilled;
  Value* args = inline_args;
  if (n > kInlineArgs) {
    spilled.resize(n);
    args = spilled.data();
  }
  for (std::size_t i = 0; i < n; ++i) args[i] = eval(frame, *e.args[i]);
  const std::string& name = e.info->call->name();
  auto arity = [&](std::size_t want) {
    interp_check_msg(n == want, "bad arity for intrinsic " + name);
  };
  switch (e.fn) {
    case Intrinsic::Abs:
      arity(1);
      if (args[0].is_integer())
        return Value::integer(std::abs(args[0].as_int()));
      return Value::real(std::fabs(args[0].as_real()));
    case Intrinsic::Max:
    case Intrinsic::Min: {
      interp_check_msg(n >= 2, "bad arity for " + name);
      const bool is_max = e.fn == Intrinsic::Max;
      bool all_int = true;
      for (std::size_t i = 0; i < n; ++i)
        all_int = all_int && args[i].is_integer();
      if (all_int) {
        std::int64_t r = args[0].as_int();
        for (std::size_t i = 0; i < n; ++i)
          r = is_max ? std::max(r, args[i].as_int())
                     : std::min(r, args[i].as_int());
        return Value::integer(r);
      }
      double r = args[0].as_real();
      for (std::size_t i = 0; i < n; ++i)
        r = is_max ? std::max(r, args[i].as_real())
                   : std::min(r, args[i].as_real());
      return Value::real(r);
    }
    case Intrinsic::Mod:
      arity(2);
      if (args[0].is_integer() && args[1].is_integer()) {
        interp_check_msg(args[1].as_int() != 0, "mod by zero");
        return Value::integer(args[0].as_int() % args[1].as_int());
      }
      return Value::real(std::fmod(args[0].as_real(), args[1].as_real()));
    case Intrinsic::Sqrt:
      arity(1);
      return Value::real(std::sqrt(args[0].as_real()));
    case Intrinsic::Exp:
      arity(1);
      return Value::real(std::exp(args[0].as_real()));
    case Intrinsic::Log:
      arity(1);
      return Value::real(std::log(args[0].as_real()));
    case Intrinsic::Log10:
      arity(1);
      return Value::real(std::log10(args[0].as_real()));
    case Intrinsic::Sin:
      arity(1);
      return Value::real(std::sin(args[0].as_real()));
    case Intrinsic::Cos:
      arity(1);
      return Value::real(std::cos(args[0].as_real()));
    case Intrinsic::Tan:
      arity(1);
      return Value::real(std::tan(args[0].as_real()));
    case Intrinsic::Atan:
      arity(1);
      return Value::real(std::atan(args[0].as_real()));
    case Intrinsic::Atan2:
      arity(2);
      return Value::real(std::atan2(args[0].as_real(), args[1].as_real()));
    case Intrinsic::Sign:
      arity(2);
      if (args[0].is_integer() && args[1].is_integer()) {
        std::int64_t m = std::abs(args[0].as_int());
        return Value::integer(args[1].as_int() >= 0 ? m : -m);
      } else {
        double m = std::fabs(args[0].as_real());
        return Value::real(args[1].as_real() >= 0 ? m : -m);
      }
    case Intrinsic::Int:
      arity(1);
      return Value::integer(args[0].as_int());
    case Intrinsic::Nint:
      arity(1);
      return Value::integer(std::llround(args[0].as_real()));
    case Intrinsic::Real:
    case Intrinsic::Dble:
      arity(1);
      return Value::real(args[0].as_real());
    case Intrinsic::Iand:
      arity(2);
      return Value::integer(args[0].as_int() & args[1].as_int());
    case Intrinsic::Ior:
      arity(2);
      return Value::integer(args[0].as_int() | args[1].as_int());
    case Intrinsic::Ieor:
      arity(2);
      return Value::integer(args[0].as_int() ^ args[1].as_int());
    case Intrinsic::Unknown:
      break;
  }
  interp_check_msg(false, "unimplemented intrinsic " + name);
  return {};
}

void Interpreter::eval_subscripts(Frame& frame, const LExpr& ref,
                                  std::int64_t* subs) {
  // A reference with more subscripts than any array can have still
  // evaluates them all; flat_index then reports the rank mismatch.
  for (std::size_t i = 0; i < ref.args.size(); ++i) {
    std::int64_t v = eval(frame, *ref.args[i]).as_int();
    if (i < static_cast<std::size_t>(kMaxRank)) subs[i] = v;
  }
}

void Interpreter::store(Frame& frame, const LExpr& lhs, Value v) {
  charge(costs_.mem);
  if (lhs.op == LOp::Scalar) {
    Cell* cell = frame.lookup(lhs.slot);
    interp_check_msg(cell != nullptr && !cell->is_array,
                     "bad scalar store to " + lhs.info->sym->name());
    cell->scalar = v.coerce_to(lhs.type);
    return;
  }
  if (lhs.op == LOp::Fail) eval(frame, lhs);
  Cell* cell = frame.lookup(lhs.slot);
  interp_check_msg(cell != nullptr && cell->is_array,
                   "bad array store to " + lhs.info->sym->name());
  std::int64_t subs[kMaxRank];
  eval_subscripts(frame, lhs, subs);
  std::size_t flat = cell->array.flat_index(subs, lhs.args.size());
  if (ShadowArrays* shadow = *lhs.shadow) shadow->record_write(flat);
  (*cell->array.data)[flat] = v.coerce_to(lhs.type);
}

// --- calls ----------------------------------------------------------------------

namespace {
/// Copy-restore binding for array-element or expression actuals.
struct CopyBack {
  Cell* temp;
  Cell* target_cell;  // array cell
  std::size_t flat;
};

/// A view cell sharing `cell`'s payload from element `offset` on; its
/// bounds are resolved in callee terms.
std::unique_ptr<Cell> array_view(const Cell& cell, std::int64_t offset) {
  auto view = std::make_unique<Cell>();
  view->is_array = true;
  view->array.data = cell.array.data;
  view->array.offset = offset;
  return view;
}
}  // namespace

bool Interpreter::run_call(Frame& frame, const LStmt& call) {
  charge(costs_.call);
  const std::string& name = call.call->name();
  interp_check_msg(call.callee != nullptr,
                   "call to unknown subroutine " + name);
  const LUnit& callee = *call.callee;
  interp_check_msg(call.args.size() == callee.formals.size(),
                   "argument count mismatch calling " + name);

  Frame inner(callee.slots);
  std::vector<CopyBack> copybacks;
  std::vector<std::unique_ptr<Cell>> temps;

  for (std::size_t i = 0; i < call.args.size(); ++i) {
    const LVar& formal = *callee.formals[i];
    const LExpr& actual = *call.args[i];
    if (actual.op == LOp::Scalar) {
      Cell* cell = frame.lookup(actual.slot);
      interp_check_msg(cell != nullptr, "unbound actual " +
                                           actual.info->sym->name());
      if (cell->is_array) {
        // Whole-array aliasing: share the payload; bounds re-resolved in
        // callee terms below.
        temps.push_back(array_view(*cell, cell->array.offset));
        inner.bind(formal.slot, temps.back().get());
      } else {
        inner.bind(formal.slot, cell);  // scalar by reference
      }
      continue;
    }
    if (actual.op == LOp::Element) {
      Cell* cell = frame.lookup(actual.slot);
      interp_check(cell != nullptr && cell->is_array);
      std::int64_t subs[kMaxRank];
      eval_subscripts(frame, actual, subs);
      std::size_t flat = cell->array.flat_index(subs, actual.args.size());
      if (formal.sym->is_array()) {
        // Array section starting at the element.
        temps.push_back(array_view(*cell, static_cast<std::int64_t>(flat)));
        inner.bind(formal.slot, temps.back().get());
      } else {
        // Scalar formal bound to an array element: copy-restore.
        auto temp = std::make_unique<Cell>();
        temp->scalar = (*cell->array.data)[flat];
        copybacks.push_back({temp.get(), cell, flat});
        inner.bind(formal.slot, temp.get());
        temps.push_back(std::move(temp));
      }
      continue;
    }
    // PARAMETER or expression actual: evaluated copy (no copy-back).
    auto temp = std::make_unique<Cell>();
    temp->scalar = eval(frame, actual).coerce_to(formal.sym->type());
    inner.bind(formal.slot, temp.get());
    temps.push_back(std::move(temp));
  }

  // Resolve bound array formals' dims in callee terms (scalars first —
  // already bound above).
  for (const LVar* formal : callee.formals) {
    if (!formal->sym->is_array()) continue;
    Cell* cell = inner.lookup(formal->slot);
    interp_check(cell != nullptr);
    interp_check_msg(cell->is_array, "scalar actual for array formal " +
                                         formal->sym->name());
    resolve_array_bounds(*formal, inner, cell);
  }

  init_frame(callee, inner);
  UnitResult r = execute_range(inner, callee.first(), nullptr);
  for (const CopyBack& cb : copybacks)
    (*cb.target_cell->array.data)[cb.flat] = cb.temp->scalar;
  return r.stopped;
}

Value Interpreter::eval_user_function(Frame& frame, const LExpr& f) {
  charge(costs_.call);
  const std::string& name = f.info->call->name();
  interp_check_msg(f.info->callee != nullptr,
                   "call to unknown function " + name);
  const LUnit& callee = *f.info->callee;
  interp_check_msg(f.args.size() == callee.formals.size(),
                   "argument count mismatch calling " + name);

  Frame inner(callee.slots);
  std::vector<std::unique_ptr<Cell>> temps;
  for (std::size_t i = 0; i < f.args.size(); ++i) {
    const LVar& formal = *callee.formals[i];
    const LExpr& actual = *f.args[i];
    if (actual.op == LOp::Scalar) {
      Cell* cell = frame.lookup(actual.slot);
      if (cell != nullptr && cell->is_array && formal.sym->is_array()) {
        temps.push_back(array_view(*cell, cell->array.offset));
        inner.bind(formal.slot, temps.back().get());
        continue;
      }
      if (cell != nullptr && !cell->is_array) {
        inner.bind(formal.slot, cell);
        continue;
      }
    }
    auto temp = std::make_unique<Cell>();
    temp->scalar = eval(frame, actual).coerce_to(formal.sym->type());
    inner.bind(formal.slot, temp.get());
    temps.push_back(std::move(temp));
  }
  for (const LVar* formal : callee.formals) {
    if (!formal->sym->is_array()) continue;
    Cell* cell = inner.lookup(formal->slot);
    interp_check(cell != nullptr && cell->is_array);
    resolve_array_bounds(*formal, inner, cell);
  }
  init_frame(callee, inner);
  UnitResult r = execute_range(inner, callee.first(), nullptr);
  if (r.stopped) {
    result_.stopped = true;
    throw UserError("STOP inside function");
  }
  Cell* res = inner.lookup(callee.result_slot);
  interp_check_msg(res != nullptr && !res->is_array,
                   "function result unset: " + name);
  return res->scalar;
}

// --- parallel execution -----------------------------------------------------------

std::size_t Interpreter::reduction_elements(Frame& frame, const LStmt& d) {
  std::size_t total = 0;
  for (std::size_t slot : d.reduction_slots) {
    Cell* cell = frame.lookup(slot);
    if (cell != nullptr && cell->is_array)
      total += static_cast<std::size_t>(cell->array.element_count());
    else
      total += 1;
  }
  return total;
}

Interpreter::UnitResult Interpreter::run_parallel_loop(
    Frame& frame, const LStmt& d, std::int64_t init, std::int64_t limit,
    std::int64_t step) {
  ++result_.parallel_instances;
  in_parallel_ = true;
  Cell* idx = frame.lookup(d.index_slot);
  interp_check(idx != nullptr);
  const std::uint64_t updates_before = reduction_updates_;

  std::vector<std::uint64_t> iter_costs;
  std::uint64_t* saved_acc = cost_acc_;
  UnitResult out;
  for (std::int64_t v = init; step > 0 ? v <= limit : v >= limit;
       v += step) {
    idx->scalar = Value::integer(v);
    std::uint64_t iter_cost = costs_.loop_iter;
    cost_acc_ = &iter_cost;
    UnitResult r = execute_range(frame, d.next, d.follow);
    cost_acc_ = saved_acc;
    iter_costs.push_back(iter_cost);
    if (r.returned || r.stopped || r.jump != nullptr) {
      out = r;
      break;
    }
  }
  if (out.jump == nullptr)
    idx->scalar = Value::integer(step > 0 ? std::max(init, limit + step)
                                          : std::min(init, limit + step));
  in_parallel_ = false;

  std::uint64_t serial_sum = 0;
  for (std::uint64_t c : iter_costs) serial_sum += c;
  std::uint64_t par = schedule_doall(iter_costs, config_,
                                     reduction_elements(frame, d),
                                     d.loop->par.lastvalue_vars.size(),
                                     reduction_updates_ - updates_before);
  result_.clock.serial += serial_sum;
  result_.clock.parallel += par;
  return out;
}

Interpreter::UnitResult Interpreter::run_speculative_loop(
    Frame& frame, const LStmt& d, std::int64_t init, std::int64_t limit,
    std::int64_t step) {
  ++result_.speculative_attempts;
  Cell* idx = frame.lookup(d.index_slot);
  interp_check(idx != nullptr);

  // Checkpoint: snapshot everything the loop may write (arrays in full,
  // assigned scalars).  The paper's implementation writes to temporaries;
  // the state-restoration cost is modeled below either way.
  std::vector<std::pair<Cell*, std::vector<Value>>> array_checkpoint;
  std::vector<std::pair<Cell*, Value>> scalar_checkpoint;
  std::uint64_t checkpoint_cost = 0;
  for (std::size_t slot : d.written_arrays) {
    Cell* cell = frame.lookup(slot);
    if (cell == nullptr || !cell->is_array) continue;
    array_checkpoint.emplace_back(cell, *cell->array.data);
    checkpoint_cost += cell->array.data->size() * costs_.mem;
  }
  for (std::size_t slot : d.assigned_scalars) {
    Cell* cell = frame.lookup(slot);
    if (cell != nullptr && !cell->is_array)
      scalar_checkpoint.emplace_back(cell, cell->scalar);
  }

  // Shadow arrays for the statically unanalyzable arrays.
  std::vector<std::unique_ptr<ShadowArrays>> shadow_storage;
  interp_check_msg(!d.speculative_arrays.empty(),
                   "speculative loop without arrays under test");
  for (const LTested& array : d.speculative_arrays) {
    Cell* cell = frame.lookup(array.slot);
    interp_check_msg(cell != nullptr && cell->is_array,
                     "speculative array not bound: " + array.sym->name());
    shadow_storage.push_back(
        std::make_unique<ShadowArrays>(cell->array.data->size()));
    *array.shadow = shadow_storage.back().get();
  }

  // Speculative parallel execution with marking.
  in_parallel_ = true;
  std::vector<std::uint64_t> iter_costs;
  std::uint64_t* saved_acc = cost_acc_;
  UnitResult out;
  for (std::int64_t v = init; step > 0 ? v <= limit : v >= limit;
       v += step) {
    idx->scalar = Value::integer(v);
    for (auto& sh : shadow_storage) sh->begin_iteration();
    std::uint64_t iter_cost = costs_.loop_iter;
    cost_acc_ = &iter_cost;
    UnitResult r = execute_range(frame, d.next, d.follow);
    cost_acc_ = saved_acc;
    for (auto& sh : shadow_storage) sh->end_iteration();
    iter_costs.push_back(iter_cost);
    if (r.returned || r.stopped || r.jump != nullptr) {
      out = r;
      break;
    }
  }
  in_parallel_ = false;
  for (const LTested& array : d.speculative_arrays) *array.shadow = nullptr;

  // Post-execution analysis.
  bool pass = true;
  std::uint64_t pd_cost = 0;
  for (auto& sh : shadow_storage) {
    pass = pass && sh->analyze().pass();
    pd_cost += sh->cost(config_.processors);
  }
  result_.pd_test_cost += pd_cost;

  std::uint64_t serial_sum = 0;
  for (std::uint64_t c : iter_costs) serial_sum += c;
  result_.clock.serial += serial_sum;

  if (pass) {
    std::uint64_t par = schedule_doall(iter_costs, config_,
                                       reduction_elements(frame, d),
                                       d.loop->par.lastvalue_vars.size());
    result_.clock.parallel += par + pd_cost + checkpoint_cost;
    if (out.jump == nullptr)
      idx->scalar = Value::integer(step > 0 ? std::max(init, limit + step)
                                            : std::min(init, limit + step));
    return out;
  }

  // Failed: restore state, charge the wasted attempt, re-execute serially.
  ++result_.speculative_failures;
  for (auto& [cell, snapshot] : array_checkpoint)
    *cell->array.data = snapshot;
  for (auto& [cell, snapshot] : scalar_checkpoint) cell->scalar = snapshot;

  std::uint64_t wasted = schedule_doall(iter_costs, config_, 0, 0) + pd_cost +
                         checkpoint_cost;
  result_.speculative_wasted += wasted;
  result_.clock.parallel += wasted;

  // Sequential re-execution (results recomputed identically; costs flow
  // into both clocks... the serial reference already includes one
  // execution, so charge only the parallel clock for the re-run).
  std::uint64_t rerun_cost = 0;
  cost_acc_ = &rerun_cost;
  UnitResult r2;
  for (std::int64_t v = init; step > 0 ? v <= limit : v >= limit;
       v += step) {
    idx->scalar = Value::integer(v);
    charge(costs_.loop_iter);
    r2 = execute_range(frame, d.next, d.follow);
    if (r2.returned || r2.stopped || r2.jump != nullptr) break;
  }
  cost_acc_ = saved_acc;
  result_.clock.parallel += rerun_cost;
  if (r2.jump == nullptr)
    idx->scalar = Value::integer(step > 0 ? std::max(init, limit + step)
                                          : std::min(init, limit + step));
  return r2;
}

}  // namespace polaris
