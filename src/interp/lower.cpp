#include "interp/lower.h"

#include <unordered_map>

#include "dep/access.h"
#include "parser/parser.h"

namespace polaris {

namespace {

Intrinsic intrinsic_of(const std::string& name) {
  static constexpr struct {
    const char* name;
    Intrinsic fn;
  } kNames[] = {
      {"abs", Intrinsic::Abs},     {"max", Intrinsic::Max},
      {"min", Intrinsic::Min},     {"mod", Intrinsic::Mod},
      {"sqrt", Intrinsic::Sqrt},   {"exp", Intrinsic::Exp},
      {"log", Intrinsic::Log},     {"log10", Intrinsic::Log10},
      {"sin", Intrinsic::Sin},     {"cos", Intrinsic::Cos},
      {"tan", Intrinsic::Tan},     {"atan", Intrinsic::Atan},
      {"atan2", Intrinsic::Atan2}, {"sign", Intrinsic::Sign},
      {"int", Intrinsic::Int},     {"nint", Intrinsic::Nint},
      {"real", Intrinsic::Real},   {"dble", Intrinsic::Dble},
      {"iand", Intrinsic::Iand},   {"ior", Intrinsic::Ior},
      {"ieor", Intrinsic::Ieor},
  };
  for (const auto& entry : kNames)
    if (name == entry.name) return entry.fn;
  return Intrinsic::Unknown;
}

LOp binop_of(BinOpKind k) {
  switch (k) {
    case BinOpKind::Add: return LOp::Add;
    case BinOpKind::Sub: return LOp::Sub;
    case BinOpKind::Mul: return LOp::Mul;
    case BinOpKind::Div: return LOp::Div;
    case BinOpKind::Pow: return LOp::Pow;
    case BinOpKind::Eq: return LOp::Eq;
    case BinOpKind::Ne: return LOp::Ne;
    case BinOpKind::Lt: return LOp::Lt;
    case BinOpKind::Le: return LOp::Le;
    case BinOpKind::Gt: return LOp::Gt;
    case BinOpKind::Ge: return LOp::Ge;
    case BinOpKind::And: return LOp::And;
    case BinOpKind::Or: return LOp::Or;
  }
  p_unreachable("bad binop");
}

/// True when evaluating `e` reads no storage and calls no user code, so
/// its value and the units it charges are the same on every evaluation.
bool reads_no_storage(const LExpr& e) {
  switch (e.op) {
    case LOp::Const:
      return true;
    case LOp::Param:
      return e.cacheable;
    case LOp::Scalar:
    case LOp::Element:
    case LOp::Function:
    case LOp::Fail:
      return false;
    case LOp::Intrinsic:
      for (const LExpr* arg : e.args)
        if (!reads_no_storage(*arg)) return false;
      return true;
    default:  // operators
      return reads_no_storage(*e.a) &&
             (e.b == nullptr || reads_no_storage(*e.b));
  }
}

class Lowerer {
 public:
  explicit Lowerer(LoweredProgram& out) : out_(out) {}

  void lower(Program& program) {
    for (const auto& unit : program.units()) {
      out_.units.push_back(std::make_unique<LUnit>());
      out_.units.back()->ir = unit.get();
      unit_of_[unit.get()] = out_.units.back().get();
    }
    program_ = &program;
    for (const auto& lu : out_.units) lower_unit(*lu);
    out_.main = unit_of_.at(program.main());
  }

 private:
  LExpr& node(LOp op) {
    out_.exprs.emplace_back();
    out_.exprs.back().op = op;
    return out_.exprs.back();
  }

  LExprInfo& info() {
    out_.infos.emplace_back();
    return out_.infos.back();
  }

  /// The record shared by every Scalar and Element node of `sym`.
  const LExprInfo* info_of(Symbol* sym) {
    const LExprInfo*& memo = sym_info_[sym];
    if (memo == nullptr) {
      LExprInfo& i = info();
      i.sym = sym;
      memo = &i;
    }
    return memo;
  }

  const LExpr* fail(const char* cond, std::string msg) {
    LExprInfo& i = info();
    i.fail_cond = cond;
    i.fail_msg = std::move(msg);
    LExpr& n = node(LOp::Fail);
    n.info = &i;
    return &n;
  }

  /// The frame slot of `sym` in the unit being lowered; 0 (never bound)
  /// when the unit gives it no storage.  Keyed by id, like SymbolMap.
  std::size_t slot_of(const Symbol* sym) const {
    if (sym == nullptr) return 0;
    auto it = slot_of_id_.find(sym->id());
    return it == slot_of_id_.end() ? 0 : it->second;
  }

  /// The callee named `name` if it is a unit of kind `kind`, else null.
  LUnit* callee(const std::string& name, UnitKind kind) const {
    ProgramUnit* unit = program_->find(name);
    return unit != nullptr && unit->kind() == kind ? unit_of_.at(unit)
                                                   : nullptr;
  }

  void lower_unit(LUnit& lu) {
    unit_ = &lu;
    slot_of_id_.clear();
    params_.clear();
    ProgramUnit& unit = *lu.ir;

    auto add_var = [&](Symbol* sym) {
      if (slot_of_id_.count(sym->id())) return;
      slot_of_id_[sym->id()] = lu.slots;
      lu.vars.push_back(LVar{sym, lu.slots++, {}, {}});
    };
    for (Symbol* sym : unit.symtab().symbols())
      if (sym->kind() == SymbolKind::Variable) add_var(sym);
    for (Symbol* formal : unit.formals()) add_var(formal);
    for (Symbol* formal : unit.formals())
      lu.formals.push_back(&lu.vars[slot_of(formal) - 1]);
    lu.result_slot = slot_of(unit.result());
    lu.shadows = std::make_unique<ShadowArrays*[]>(lu.slots);

    for (LVar& var : lu.vars) {
      for (const Dimension& dim : var.sym->dims())
        var.dims.push_back({dim.lower ? value(*dim.lower) : nullptr,
                            dim.upper ? value(*dim.upper) : nullptr});
      for (const ExprPtr& v : var.sym->data_values())
        var.data.push_back(value(*v));
    }

    std::vector<Statement*> order;
    for (Statement* s = unit.stmts().first(); s != nullptr; s = s->next())
      order.push_back(s);
    lu.stmts.resize(order.size());
    std::unordered_map<const Statement*, const LStmt*> at;
    for (std::size_t i = 0; i < order.size(); ++i) at[order[i]] = &lu.stmts[i];
    auto to = [&](const Statement* s) -> const LStmt* {
      auto it = at.find(s);
      return it == at.end() ? nullptr : it->second;
    };
    for (std::size_t i = 0; i < order.size(); ++i) {
      LStmt& ls = lu.stmts[i];
      ls.kind = order[i]->kind();
      ls.next = to(order[i]->next());
      lower_stmt(unit, *order[i], ls, to);
    }
  }

  template <typename To>
  void lower_stmt(ProgramUnit& unit, Statement& s, LStmt& ls, const To& to) {
    switch (s.kind()) {
      case StmtKind::Assign: {
        auto& a = static_cast<AssignStmt&>(s);
        ls.lhs = target(a.lhs());
        ls.rhs = value(a.rhs());
        ls.reduction = a.reduction_flag != ReductionKind::None;
        return;
      }
      case StmtKind::Do: {
        auto& d = static_cast<DoStmt&>(s);
        ls.init = value(d.init());
        ls.limit = value(d.limit());
        ls.step = value(d.step());
        ls.index_slot = slot_of(d.index());
        ls.follow = to(d.follow());
        ls.loop = &d;
        for (const ReductionInfo& r : d.par.reductions)
          ls.reduction_slots.push_back(slot_of(r.var));
        for (Symbol* array : d.par.speculative_arrays) {
          const std::size_t slot = slot_of(array);
          ls.speculative_arrays.push_back({array, slot, &unit_->shadows[slot]});
        }
        if (d.par.speculative) {
          // The checkpoint set: arrays the loop writes, scalars it assigns.
          for (const auto& [array, refs] : collect_array_accesses(&d)) {
            for (const ArrayAccess& access : refs) {
              if (!access.is_write) continue;
              ls.written_arrays.push_back(slot_of(array));
              break;
            }
          }
          for (Symbol* scalar : scalars_assigned(&d))
            ls.assigned_scalars.push_back(slot_of(scalar));
        }
        return;
      }
      case StmtKind::If: {
        auto& i = static_cast<IfStmt&>(s);
        ls.cond = value(i.cond());
        ls.next_arm = to(i.next_arm());
        ls.end = to(i.end());
        return;
      }
      case StmtKind::ElseIf: {
        auto& e = static_cast<ElseIfStmt&>(s);
        ls.cond = value(e.cond());
        ls.next_arm = to(e.next_arm());
        ls.end = to(e.end());
        return;
      }
      case StmtKind::Else:
        ls.end = to(static_cast<ElseStmt&>(s).end());
        return;
      case StmtKind::Goto:
        ls.target = to(
            unit.stmts().find_label(static_cast<GotoStmt&>(s).target()));
        return;
      case StmtKind::Call: {
        auto& c = static_cast<CallStmt&>(s);
        ls.call = &c;
        ls.callee = callee(c.name(), UnitKind::Subroutine);
        for (const ExprPtr& arg : c.args()) ls.args.push_back(value(*arg));
        return;
      }
      case StmtKind::Print:
        for (const ExprPtr& item : static_cast<PrintStmt&>(s).items()) {
          if (item->kind() == ExprKind::StringConst)
            ls.items.push_back(
                {&static_cast<const StringConst&>(*item).value(), nullptr});
          else
            ls.items.push_back({nullptr, value(*item)});
        }
        return;
      case StmtKind::EndDo:
      case StmtKind::EndIf:
      case StmtKind::Continue:
      case StmtKind::Return:
      case StmtKind::Stop:
      case StmtKind::Comment:
        return;
    }
  }

  const LExpr* element(const ArrayRef& ref) {
    LExpr& n = node(LOp::Element);
    n.info = info_of(ref.symbol());
    n.slot = slot_of(ref.symbol());
    n.type = ref.symbol()->type();
    n.shadow = &unit_->shadows[n.slot];
    for (const ExprPtr& sub : ref.subscripts()) n.args.push_back(value(*sub));
    return &n;
  }

  /// An assignment target: a Scalar or Element node.
  const LExpr* target(const Expression& e) {
    if (e.kind() == ExprKind::ArrayRef)
      return element(static_cast<const ArrayRef&>(e));
    if (e.kind() != ExprKind::VarRef)
      return fail("false", "bad assignment target " + e.to_string());
    Symbol* sym = static_cast<const VarRef&>(e).symbol();
    LExpr& n = node(LOp::Scalar);
    n.info = info_of(sym);
    n.slot = slot_of(sym);
    n.type = sym->type();
    return &n;
  }

  const LExpr* param(Symbol* sym) {
    auto memo = params_.find(sym);
    if (memo != params_.end()) {
      if (memo->second == nullptr)
        return fail("false", "PARAMETER defined in terms of itself: " +
                                 sym->name());
      return memo->second;
    }
    const Expression* pv = sym->param_value();
    if (pv == nullptr) return fail("sym->param_value() != nullptr", "");

    params_[sym] = nullptr;  // in progress
    const LExpr* lowered = value(*pv);
    const LExpr* out;
    if (lowered->op == LOp::Const &&
        lowered->value.is_logical() == sym->type().is_logical()) {
      LExpr& n = node(LOp::Const);
      n.value = lowered->value.coerce_to(sym->type());
      out = &n;
    } else {
      LExprInfo& i = info();
      i.sym = sym;
      LExpr& n = node(LOp::Param);
      n.info = &i;
      n.type = sym->type();
      n.a = lowered;
      n.cacheable = reads_no_storage(*lowered);
      out = &n;
    }
    params_[sym] = out;
    return out;
  }

  const LExpr* value(const Expression& e) {
    switch (e.kind()) {
      case ExprKind::IntConst: {
        LExpr& n = node(LOp::Const);
        n.value = Value::integer(static_cast<const IntConst&>(e).value());
        return &n;
      }
      case ExprKind::RealConst: {
        LExpr& n = node(LOp::Const);
        n.value = Value::real(static_cast<const RealConst&>(e).value());
        return &n;
      }
      case ExprKind::LogicalConst: {
        LExpr& n = node(LOp::Const);
        n.value = Value::logical(static_cast<const LogicalConst&>(e).value());
        return &n;
      }
      case ExprKind::StringConst:
        return fail("false", "string value outside PRINT");
      case ExprKind::VarRef: {
        Symbol* sym = static_cast<const VarRef&>(e).symbol();
        if (sym->kind() == SymbolKind::Parameter) return param(sym);
        LExpr& n = node(LOp::Scalar);
        n.info = info_of(sym);
        n.slot = slot_of(sym);
        n.type = sym->type();
        return &n;
      }
      case ExprKind::ArrayRef:
        return element(static_cast<const ArrayRef&>(e));
      case ExprKind::BinOp: {
        const auto& b = static_cast<const BinOp&>(e);
        const LExpr* l = value(b.left());
        const LExpr* r = value(b.right());
        LExpr& n = node(binop_of(b.op()));
        n.a = l;
        n.b = r;
        return &n;
      }
      case ExprKind::UnOp: {
        const auto& u = static_cast<const UnOp&>(e);
        const LExpr* operand = value(u.operand());
        LExpr& n = node(u.op() == UnOpKind::Neg ? LOp::Neg : LOp::Not);
        n.a = operand;
        return &n;
      }
      case ExprKind::FuncCall: {
        const auto& f = static_cast<const FuncCall&>(e);
        std::vector<const LExpr*> args;
        for (const ExprPtr& arg : f.args()) args.push_back(value(*arg));
        const bool intrinsic = is_intrinsic_name(f.name());
        LExprInfo& i = info();
        i.call = &f;
        if (!intrinsic) i.callee = callee(f.name(), UnitKind::Function);
        LExpr& n = node(intrinsic ? LOp::Intrinsic : LOp::Function);
        n.info = &i;
        n.args = std::move(args);
        if (intrinsic) n.fn = intrinsic_of(f.name());
        return &n;
      }
      case ExprKind::Wildcard:
        return fail("false", "wildcard evaluated at run time");
    }
    p_unreachable("bad expression kind");
  }

  LoweredProgram& out_;
  Program* program_ = nullptr;
  std::unordered_map<const ProgramUnit*, LUnit*> unit_of_;
  std::unordered_map<const Symbol*, const LExprInfo*> sym_info_;
  // State of the unit being lowered.
  LUnit* unit_ = nullptr;
  std::unordered_map<int, std::size_t> slot_of_id_;
  std::unordered_map<const Symbol*, const LExpr*> params_;
};

}  // namespace

std::unique_ptr<LoweredProgram> lower_program(Program& program,
                                              const CostModel& costs) {
  auto out = std::make_unique<LoweredProgram>();
  Lowerer(*out).lower(program);
  compile_closures(*out, costs);
  return out;
}

}  // namespace polaris
