#include "interp/closure.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>

#include "interp/interp.h"
#include "interp/lower.h"

namespace polaris {

namespace {

using Int = std::int64_t;
template <typename T>
using Fn = T (*)(const CNode&, CCtx&);

// --- typed access -------------------------------------------------------------

template <typename T>
constexpr TypeKind kind_of_value();
template <>
constexpr TypeKind kind_of_value<Int>() { return TypeKind::Integer; }
template <>
constexpr TypeKind kind_of_value<double>() { return TypeKind::Real; }
template <>
constexpr TypeKind kind_of_value<bool>() { return TypeKind::Logical; }

template <typename T>
T call(const CNode* n, CCtx& c);
template <>
inline Int call<Int>(const CNode* n, CCtx& c) { return n->fn.i(*n, c); }
template <>
inline double call<double>(const CNode* n, CCtx& c) { return n->fn.r(*n, c); }
template <>
inline bool call<bool>(const CNode* n, CCtx& c) { return n->fn.l(*n, c); }

inline Int payload(const Value& v, Int*) { return v.raw_int(); }
inline double payload(const Value& v, double*) { return v.raw_real(); }
inline bool payload(const Value& v, bool*) { return v.raw_logical(); }
template <typename T>
T payload(const Value& v) { return payload(v, static_cast<T*>(nullptr)); }

inline Value make(Int v) { return Value::integer(v); }
inline Value make(double v) { return Value::real(v); }
inline Value make(bool v) { return Value::logical(v); }

template <typename T>
T failed(CCtx& c) {
  c.failed = true;
  return T{};
}

// --- leaves and storage ---------------------------------------------------------

template <typename T>
T constant(const CNode& n, CCtx&);
template <>
Int constant<Int>(const CNode& n, CCtx&) { return n.k.i; }
template <>
double constant<double>(const CNode& n, CCtx&) { return n.k.r; }
template <>
bool constant<bool>(const CNode& n, CCtx&) { return n.k.l; }

template <typename T>
T load_scalar(const CNode& n, CCtx& c) {
  const Cell* cell = c.cells[n.slot];
  if (cell == nullptr || cell->is_array ||
      cell->scalar.kind() != kind_of_value<T>()) [[unlikely]]
    return failed<T>(c);
  return payload<T>(cell->scalar);
}

/// Evaluates element node `n`'s subscripts (in place when `Affine`) and
/// checks what the walker checks (bound array, rank, declared bounds,
/// storage): the element and its flat index, or null with `c.failed` set.
/// R is the rank, or 0 for the node's own (ranks above 3).
template <int R, bool Affine>
Value* element(const CNode& n, CCtx& c, std::size_t& flat) {
  const int rank = R > 0 ? R : static_cast<int>(n.n);
  Int subs[kMaxRank];
  for (int d = 0; d < rank; ++d) {
    if constexpr (Affine) {
      const polaris::Affine& s = n.affine[d];
      subs[d] = s.offset;
      if (s.scalar) {
        const Cell* var = c.cells[s.slot];
        if (var == nullptr || var->is_array ||
            var->scalar.kind() != TypeKind::Integer) [[unlikely]]
          return failed<Value*>(c);
        subs[d] += var->scalar.raw_int();
      }
    } else {
      subs[d] = call<Int>(n.args[d], c);
    }
  }
  Cell* cell = c.cells[n.slot];
  if (cell == nullptr || !cell->is_array || cell->array.rank != rank)
      [[unlikely]]
    return failed<Value*>(c);
  const ArrayStorage& array = cell->array;
  Int at = array.offset;
  for (int d = 0; d < rank; ++d) {
    if (subs[d] < array.lo[d] || subs[d] > array.hi[d]) [[unlikely]]
      return failed<Value*>(c);
    at += (subs[d] - array.lo[d]) * array.stride[d];
  }
  std::vector<Value>& data = *array.data;
  if (at < 0 || static_cast<std::size_t>(at) >= data.size()) [[unlikely]]
    return failed<Value*>(c);
  flat = static_cast<std::size_t>(at);
  return &data[flat];
}

template <typename T, int R, bool Affine>
T load_element(const CNode& n, CCtx& c) {
  std::size_t flat = 0;
  const Value* v = element<R, Affine>(n, c, flat);
  if (v == nullptr || v->kind() != kind_of_value<T>()) [[unlikely]]
    return failed<T>(c);
  if (ShadowArrays* shadow = *n.shadow)
    c.marks->push_back({shadow, flat, false});
  return payload<T>(*v);
}

/// Assignment roots: evaluate the value, then the target; store only when
/// no guard failed.
template <typename T>
bool store_scalar(const CNode& n, CCtx& c) {
  const T v = call<T>(n.a, c);
  Cell* cell = c.cells[n.slot];
  if (c.failed || cell == nullptr || cell->is_array) [[unlikely]]
    return failed<bool>(c);
  cell->scalar = make(v);
  return true;
}

template <typename T, int R, bool Affine>
bool store_element(const CNode& n, CCtx& c) {
  const T v = call<T>(n.a, c);
  std::size_t flat = 0;
  Value* slot = element<R, Affine>(n, c, flat);
  if (c.failed) [[unlikely]]
    return false;
  if (ShadowArrays* shadow = *n.shadow)
    c.marks->push_back({shadow, flat, true});
  *slot = make(v);
  return true;
}

/// Element functions indexed by rank_index(rank).
template <typename T, bool Affine>
constexpr Fn<T> kLoadElement[] = {
    &load_element<T, 0, Affine>, &load_element<T, 1, Affine>,
    &load_element<T, 2, Affine>, &load_element<T, 3, Affine>};
template <typename T, bool Affine>
constexpr Fn<bool> kStoreElement[] = {
    &store_element<T, 0, Affine>, &store_element<T, 1, Affine>,
    &store_element<T, 2, Affine>, &store_element<T, 3, Affine>};
constexpr std::size_t rank_index(std::size_t rank) {
  return rank <= 3 ? rank : 0;
}

// --- operators ------------------------------------------------------------------

/// Both operands evaluated, left first, as the walker does.
template <typename T, typename Op>
auto binary(const CNode& n, CCtx& c) -> decltype(Op{}(T{}, T{})) {
  const T l = call<T>(n.a, c);
  const T r = call<T>(n.b, c);
  return Op{}(l, r);
}

struct LogicalAnd {
  bool operator()(bool l, bool r) const { return l && r; }
};
struct LogicalOr {
  bool operator()(bool l, bool r) const { return l || r; }
};

/// INT64_MIN / -1 traps like division by zero would on the walker; both
/// re-run there.
bool bad_divisor(Int l, Int r) {
  return r == 0 || (r == -1 && l == std::numeric_limits<Int>::min());
}

Int divide_int(const CNode& n, CCtx& c) {
  const Int l = call<Int>(n.a, c);
  const Int r = call<Int>(n.b, c);
  if (bad_divisor(l, r)) [[unlikely]]
    return failed<Int>(c);
  return l / r;
}

Int mod_int(const CNode& n, CCtx& c) {
  const Int l = call<Int>(n.a, c);
  const Int r = call<Int>(n.b, c);
  if (bad_divisor(l, r)) [[unlikely]]
    return failed<Int>(c);
  return l % r;
}

Int power_int(const CNode& n, CCtx& c) {
  const Int l = call<Int>(n.a, c);
  const Int r = call<Int>(n.b, c);
  if (r < 0) [[unlikely]]
    return failed<Int>(c);
  return int_power(l, r);
}

double power_real(const CNode& n, CCtx& c) {
  const double l = call<double>(n.a, c);
  const double r = call<double>(n.b, c);
  return std::pow(l, r);
}

template <typename T>
T negate(const CNode& n, CCtx& c) { return -call<T>(n.a, c); }
bool logical_not(const CNode& n, CCtx& c) { return !call<bool>(n.a, c); }

/// Value::as_real of an integer, Value::as_int of a real (truncation).
double int_to_real(const CNode& n, CCtx& c) {
  return static_cast<double>(call<Int>(n.a, c));
}
Int real_to_int(const CNode& n, CCtx& c) {
  const double v = call<double>(n.a, c);
  // After a failed guard `v` may be anything, such as 1/0: converting an
  // out-of-range value is undefined, and the walker re-runs anyway.
  if (c.failed) [[unlikely]]
    return 0;
  return static_cast<Int>(v);
}

// --- intrinsics -----------------------------------------------------------------

Int abs_int(const CNode& n, CCtx& c) { return std::abs(call<Int>(n.a, c)); }
double abs_real(const CNode& n, CCtx& c) {
  return std::fabs(call<double>(n.a, c));
}

/// MAX / MIN over `n.args`, in order.
template <typename T, bool Max>
T extremum(const CNode& n, CCtx& c) {
  T r = call<T>(n.args[0], c);
  for (std::uint32_t i = 1; i < n.n; ++i) {
    const T v = call<T>(n.args[i], c);
    r = Max ? std::max(r, v) : std::min(r, v);
  }
  return r;
}

template <typename T>
T sign(const CNode& n, CCtx& c) {
  const T a = call<T>(n.a, c);
  const T b = call<T>(n.b, c);
  const T m = std::abs(a);
  return b >= 0 ? m : -m;
}

Int nearest_int(const CNode& n, CCtx& c) {
  return std::llround(call<double>(n.a, c));
}

template <double (*F)(double)>
double real_fn(const CNode& n, CCtx& c) { return F(call<double>(n.a, c)); }

double f_sqrt(double x) { return std::sqrt(x); }
double f_exp(double x) { return std::exp(x); }
double f_log(double x) { return std::log(x); }
double f_log10(double x) { return std::log10(x); }
double f_sin(double x) { return std::sin(x); }
double f_cos(double x) { return std::cos(x); }
double f_tan(double x) { return std::tan(x); }
double f_atan(double x) { return std::atan(x); }

struct Atan2 {
  double operator()(double y, double x) const { return std::atan2(y, x); }
};
struct Fmod {
  double operator()(double x, double y) const { return std::fmod(x, y); }
};

// --- compilation ----------------------------------------------------------------

/// Static kinds: a Value's kind is always one of these three.
enum class K : std::uint8_t { Int, Real, Logical };

/// The kind Value::coerce_to(t) produces.
K kind_of(Type t) {
  if (t.is_integer()) return K::Int;
  if (t.is_logical()) return K::Logical;
  return K::Real;
}

/// A compiled expression; `node` is null when it cannot be compiled.
struct Code {
  const CNode* node = nullptr;
  K kind = K::Int;
  std::uint64_t cost = 0;   ///< the units the walker charges for it
  bool constant = false;    ///< a folded constant
  explicit operator bool() const { return node != nullptr; }
};

class ClosureCompiler {
 public:
  ClosureCompiler(Closures& out, const CostModel& costs)
      : out_(out), costs_(costs) {}

  void compile(LUnit& unit) {
    // DO indices that no assignment stores to.
    int_index_.assign(unit.slots, false);
    std::vector<bool> assigned(unit.slots, false);
    for (const LStmt& s : unit.stmts) {
      if (s.kind == StmtKind::Do) int_index_[s.index_slot] = true;
      if (s.kind == StmtKind::Assign && s.lhs->op == LOp::Scalar)
        assigned[s.lhs->slot] = true;
    }
    for (std::size_t slot = 0; slot < unit.slots; ++slot)
      int_index_[slot] = int_index_[slot] && !assigned[slot];
    for (LStmt& s : unit.stmts) compile(s);
  }

 private:
  void compile(LStmt& s) {
    switch (s.kind) {
      case StmtKind::Assign:
        assignment(s);
        return;
      case StmtKind::If:
      case StmtKind::ElseIf: {
        Code cond = expr(*s.cond);
        if (!cond || cond.kind != K::Logical) return;
        s.code[0] = cond.node;
        s.code_cost = costs_.branch + cond.cost;
        return;
      }
      case StmtKind::Do: {
        Code init = to(K::Int, expr(*s.init));
        Code limit = to(K::Int, expr(*s.limit));
        Code step = to(K::Int, expr(*s.step));
        if (!init || !limit || !step) return;
        s.code[0] = init.node;
        s.code[1] = limit.node;
        s.code[2] = step.node;
        s.code_cost = init.cost + limit.cost + step.cost;
        return;
      }
      default:
        return;
    }
  }

  /// The kind a scalar read predicts (its guard checks it): the declared
  /// type's, except integer for a DO index no assignment stores to.  A DO
  /// stores integers whatever the index's type, and implicit typing makes
  /// indices such as `d` or `s` real.
  K scalar_kind(const LExpr& e) const {
    return int_index_[e.slot] ? K::Int : kind_of(e.type);
  }

  CNode& node() {
    out_.nodes.emplace_back();
    return out_.nodes.back();
  }

  static void set(CNode& n, Fn<Int> f) { n.fn.i = f; }
  static void set(CNode& n, Fn<double> f) { n.fn.r = f; }
  static void set(CNode& n, Fn<bool> f) { n.fn.l = f; }
  /// Sets the function of kind `k`.
  static void set(CNode& n, K k, Fn<Int> i, Fn<double> r, Fn<bool> l) {
    switch (k) {
      case K::Int: n.fn.i = i; return;
      case K::Real: n.fn.r = r; return;
      case K::Logical: n.fn.l = l; return;
    }
  }

  /// An operator node of kind `kind` over `operands`; folded to a constant
  /// when every operand is one and it evaluates without a failed guard.
  template <typename F>
  Code op(K kind, F fn, std::uint64_t cost, std::initializer_list<Code> in) {
    CNode& n = node();
    set(n, fn);
    bool constant = true;
    std::uint64_t total = cost;
    std::size_t i = 0;
    for (const Code& c : in) {
      (i++ == 0 ? n.a : n.b) = c.node;
      constant = constant && c.constant;
      total += c.cost;
    }
    Code out{&n, kind, total, false};
    return constant ? fold(n, out) : out;
  }

  /// `c`, whose node `n` has only constant operands, as a constant node.
  Code fold(CNode& n, Code c) {
    CCtx ctx{nullptr, nullptr};
    CNode folded;
    switch (c.kind) {
      case K::Int:
        folded.k.i = n.fn.i(n, ctx);
        folded.fn.i = &constant<Int>;
        break;
      case K::Real:
        folded.k.r = n.fn.r(n, ctx);
        folded.fn.r = &constant<double>;
        break;
      case K::Logical:
        folded.k.l = n.fn.l(n, ctx);
        folded.fn.l = &constant<bool>;
        break;
    }
    if (ctx.failed) return c;
    n = folded;
    c.constant = true;
    return c;
  }

  /// `c` converted to kind `want` as Value::as_int / as_real /
  /// coerce_to convert; a logical never converts to a number or back.
  Code to(K want, Code c) {
    if (!c || c.kind == want) return c;
    if (c.kind == K::Logical || want == K::Logical) return {};
    if (want == K::Real) return op(K::Real, &int_to_real, 0, {c});
    return op(K::Int, &real_to_int, 0, {c});
  }

  Code expr(const LExpr& e) {
    switch (e.op) {
      case LOp::Const:
        return constant_of(e.value);
      case LOp::Param: {
        auto memo = params_.find(&e);
        if (memo != params_.end()) return memo->second;
        Code c = to(kind_of(e.type), expr(*e.a));
        params_[&e] = c;
        return c;
      }
      case LOp::Scalar: {
        CNode& n = node();
        const K k = scalar_kind(e);
        set(n, k, &load_scalar<Int>, &load_scalar<double>,
            &load_scalar<bool>);
        n.slot = static_cast<std::uint32_t>(e.slot);
        return {&n, k, costs_.mem, false};
      }
      case LOp::Element: {
        const K k = kind_of(e.type);
        const std::size_t rank = e.args.size();
        if (rank == 0 || rank > static_cast<std::size_t>(kMaxRank))
          return {};
        CNode& n = node();
        std::uint64_t cost = costs_.mem;
        if (!subscripts(e, n, cost)) return {};
        const std::size_t r = rank_index(rank);
        if (n.affine != nullptr)
          set(n, k, kLoadElement<Int, true>[r], kLoadElement<double, true>[r],
              kLoadElement<bool, true>[r]);
        else
          set(n, k, kLoadElement<Int, false>[r],
              kLoadElement<double, false>[r], kLoadElement<bool, false>[r]);
        return {&n, k, cost, false};
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
      case LOp::Or:
        return binary_op(e);
      case LOp::Neg: {
        Code v = expr(*e.a);
        if (!v || v.kind == K::Logical) return {};
        if (v.kind == K::Int) return op(K::Int, &negate<Int>, costs_.add, {v});
        return op(K::Real, &negate<double>, costs_.add, {v});
      }
      case LOp::Not: {
        Code v = expr(*e.a);
        if (!v || v.kind != K::Logical) return {};
        return op(K::Logical, &logical_not, costs_.add, {v});
      }
      case LOp::Intrinsic:
        return intrinsic(e);
      case LOp::Function:
      case LOp::Fail:
        return {};
    }
    return {};
  }

  Code constant_of(const Value& v) {
    CNode& n = node();
    K k;
    if (v.is_integer()) {
      k = K::Int;
      n.k.i = v.raw_int();
      n.fn.i = &constant<Int>;
    } else if (v.is_logical()) {
      k = K::Logical;
      n.k.l = v.raw_logical();
      n.fn.l = &constant<bool>;
    } else {
      k = K::Real;
      n.k.r = v.raw_real();
      n.fn.r = &constant<double>;
    }
    return {&n, k, 0, true};
  }

  /// Compiles `ref`'s subscripts (each as Value::as_int reads it) into
  /// `n`, with its slot and shadow; adds their cost to `cost`.  When every
  /// subscript is affine, `n.affine` describes them.
  bool subscripts(const LExpr& ref, CNode& n, std::uint64_t& cost) {
    std::vector<const CNode*> subs;
    std::vector<Affine> affine;
    for (const LExpr* arg : ref.args) {
      Code s = to(K::Int, expr(*arg));
      if (!s) return false;
      subs.push_back(s.node);
      cost += s.cost;
      Affine a;
      if (affine.size() + 1 == subs.size() && affine_of(*arg, s, a))
        affine.push_back(a);
    }
    if (affine.size() == subs.size()) {
      out_.affine.push_back(std::move(affine));
      n.affine = out_.affine.back().data();
    } else {
      out_.args.push_back(std::move(subs));
      n.args = out_.args.back().data();
    }
    n.n = static_cast<std::uint32_t>(ref.args.size());
    n.slot = static_cast<std::uint32_t>(ref.slot);
    n.shadow = ref.shadow;
    return true;
  }

  /// True when integer subscript `e`, compiled to `c`, is an integer
  /// scalar, a constant, or a scalar plus or minus a constant.
  bool affine_of(const LExpr& e, const Code& c, Affine& out) {
    if (c.constant) {
      out = {c.node->k.i, 0, false};
      return true;
    }
    auto scalar = [&](const LExpr& v) {
      return v.op == LOp::Scalar && scalar_kind(v) == K::Int;
    };
    if (scalar(e)) {
      out = {0, static_cast<std::uint32_t>(e.slot), true};
      return true;
    }
    if (e.op != LOp::Add && e.op != LOp::Sub) return false;
    const LExpr* var = scalar(*e.a) ? e.a : e.op == LOp::Add ? e.b : nullptr;
    if (var == nullptr || !scalar(*var)) return false;
    const Code k = expr(var == e.a ? *e.b : *e.a);
    if (!k.constant || k.kind != K::Int) return false;
    const Int offset = k.node->k.i;
    if (e.op == LOp::Sub && offset == std::numeric_limits<Int>::min())
      return false;
    out = {e.op == LOp::Sub ? -offset : offset,
           static_cast<std::uint32_t>(var->slot), true};
    return true;
  }

  Code binary_op(const LExpr& e) {
    Code l = expr(*e.a);
    Code r = expr(*e.b);
    if (!l || !r) return {};
    if (e.op == LOp::And || e.op == LOp::Or) {
      if (l.kind != K::Logical || r.kind != K::Logical) return {};
      if (e.op == LOp::And)
        return op(K::Logical, &binary<bool, LogicalAnd>, costs_.add, {l, r});
      return op(K::Logical, &binary<bool, LogicalOr>, costs_.add, {l, r});
    }
    if (l.kind == K::Logical || r.kind == K::Logical) return {};
    if (l.kind == K::Int && r.kind == K::Int) {
      switch (e.op) {
        case LOp::Add:
          return op(K::Int, &binary<Int, std::plus<>>, costs_.add, {l, r});
        case LOp::Sub:
          return op(K::Int, &binary<Int, std::minus<>>, costs_.add, {l, r});
        case LOp::Mul:
          return op(K::Int, &binary<Int, std::multiplies<>>, costs_.mul,
                    {l, r});
        case LOp::Div:
          return op(K::Int, &divide_int, costs_.div, {l, r});
        case LOp::Pow:
          return op(K::Int, &power_int, costs_.pow, {l, r});
        default:
          return comparison<Int>(e.op, l, r);
      }
    }
    l = to(K::Real, l);
    r = to(K::Real, r);
    switch (e.op) {
      case LOp::Add:
        return op(K::Real, &binary<double, std::plus<>>, costs_.add, {l, r});
      case LOp::Sub:
        return op(K::Real, &binary<double, std::minus<>>, costs_.add, {l, r});
      case LOp::Mul:
        return op(K::Real, &binary<double, std::multiplies<>>, costs_.mul,
                  {l, r});
      case LOp::Div:
        return op(K::Real, &binary<double, std::divides<>>, costs_.div,
                  {l, r});
      case LOp::Pow:
        return op(K::Real, &power_real, costs_.pow, {l, r});
      default:
        return comparison<double>(e.op, l, r);
    }
  }

  template <typename T>
  Code comparison(LOp o, Code l, Code r) {
    Fn<bool> f = nullptr;
    switch (o) {
      case LOp::Eq: f = &binary<T, std::equal_to<>>; break;
      case LOp::Ne: f = &binary<T, std::not_equal_to<>>; break;
      case LOp::Lt: f = &binary<T, std::less<>>; break;
      case LOp::Le: f = &binary<T, std::less_equal<>>; break;
      case LOp::Gt: f = &binary<T, std::greater<>>; break;
      case LOp::Ge: f = &binary<T, std::greater_equal<>>; break;
      default: return {};
    }
    return op(K::Logical, f, costs_.add, {l, r});
  }

  /// The kinds Interpreter::eval_intrinsic gives each intrinsic; anything
  /// it would reject (arity, a logical argument) stays on the walker.
  Code intrinsic(const LExpr& e) {
    const std::size_t n = e.args.size();
    std::vector<Code> args;
    bool all_int = true;
    for (const LExpr* arg : e.args) {
      Code a = expr(*arg);
      if (!a || a.kind == K::Logical) return {};
      all_int = all_int && a.kind == K::Int;
      args.push_back(a);
    }
    const std::uint64_t cost = costs_.intrinsic;
    auto real = [&](std::size_t i) { return to(K::Real, args[i]); };
    auto integer = [&](std::size_t i) { return to(K::Int, args[i]); };
    switch (e.fn) {
      case Intrinsic::Abs:
        if (n != 1) return {};
        if (all_int) return op(K::Int, &abs_int, cost, {args[0]});
        return op(K::Real, &abs_real, cost, {args[0]});
      case Intrinsic::Max:
      case Intrinsic::Min:
        if (n < 2) return {};
        return extremum_op(e.fn == Intrinsic::Max, all_int, args);
      case Intrinsic::Mod:
        if (n != 2) return {};
        if (all_int) return op(K::Int, &mod_int, cost, {args[0], args[1]});
        return op(K::Real, &binary<double, Fmod>, cost, {real(0), real(1)});
      case Intrinsic::Sqrt:
        return n == 1 ? op(K::Real, &real_fn<f_sqrt>, cost, {real(0)})
                      : Code{};
      case Intrinsic::Exp:
        return n == 1 ? op(K::Real, &real_fn<f_exp>, cost, {real(0)}) : Code{};
      case Intrinsic::Log:
        return n == 1 ? op(K::Real, &real_fn<f_log>, cost, {real(0)}) : Code{};
      case Intrinsic::Log10:
        return n == 1 ? op(K::Real, &real_fn<f_log10>, cost, {real(0)})
                      : Code{};
      case Intrinsic::Sin:
        return n == 1 ? op(K::Real, &real_fn<f_sin>, cost, {real(0)}) : Code{};
      case Intrinsic::Cos:
        return n == 1 ? op(K::Real, &real_fn<f_cos>, cost, {real(0)}) : Code{};
      case Intrinsic::Tan:
        return n == 1 ? op(K::Real, &real_fn<f_tan>, cost, {real(0)}) : Code{};
      case Intrinsic::Atan:
        return n == 1 ? op(K::Real, &real_fn<f_atan>, cost, {real(0)})
                      : Code{};
      case Intrinsic::Atan2:
        return n == 2 ? op(K::Real, &binary<double, Atan2>, cost,
                           {real(0), real(1)})
                      : Code{};
      case Intrinsic::Sign:
        if (n != 2) return {};
        if (all_int) return op(K::Int, &sign<Int>, cost, {args[0], args[1]});
        return op(K::Real, &sign<double>, cost, {real(0), real(1)});
      case Intrinsic::Int:
        return n == 1 ? to(K::Int, add_cost(args[0], cost)) : Code{};
      case Intrinsic::Nint:
        return n == 1 ? op(K::Int, &nearest_int, cost, {real(0)}) : Code{};
      case Intrinsic::Real:
      case Intrinsic::Dble:
        return n == 1 ? to(K::Real, add_cost(args[0], cost)) : Code{};
      case Intrinsic::Iand:
        return n == 2 ? op(K::Int, &binary<Int, std::bit_and<>>, cost,
                           {integer(0), integer(1)})
                      : Code{};
      case Intrinsic::Ior:
        return n == 2 ? op(K::Int, &binary<Int, std::bit_or<>>, cost,
                           {integer(0), integer(1)})
                      : Code{};
      case Intrinsic::Ieor:
        return n == 2 ? op(K::Int, &binary<Int, std::bit_xor<>>, cost,
                           {integer(0), integer(1)})
                      : Code{};
      case Intrinsic::Unknown:
        return {};
    }
    return {};
  }

  /// INT, REAL and DBLE are conversions: their node is the conversion (or
  /// the argument itself), charged as an intrinsic.
  static Code add_cost(Code c, std::uint64_t cost) {
    c.cost += cost;
    return c;
  }

  Code extremum_op(bool is_max, bool all_int, std::vector<Code>& args) {
    const K k = all_int ? K::Int : K::Real;
    std::vector<const CNode*> nodes;
    std::uint64_t cost = costs_.intrinsic;
    bool constant = true;
    for (Code& a : args) {
      a = to(k, a);
      nodes.push_back(a.node);
      cost += a.cost;
      constant = constant && a.constant;
    }
    CNode& n = node();
    if (all_int)
      set(n, is_max ? &extremum<Int, true> : &extremum<Int, false>);
    else
      set(n, is_max ? &extremum<double, true> : &extremum<double, false>);
    out_.args.push_back(std::move(nodes));
    n.args = out_.args.back().data();
    n.n = static_cast<std::uint32_t>(args.size());
    Code out{&n, k, cost, false};
    return constant ? fold(n, out) : out;
  }

  void assignment(LStmt& s) {
    const LExpr& lhs = *s.lhs;
    if (lhs.op != LOp::Scalar && lhs.op != LOp::Element) return;
    const K k = kind_of(lhs.type);
    Code v = to(k, expr(*s.rhs));
    if (!v) return;
    CNode& n = node();
    n.a = v.node;
    std::uint64_t cost = costs_.mem + v.cost;
    if (lhs.op == LOp::Scalar) {
      n.fn.l = k == K::Int    ? &store_scalar<Int>
               : k == K::Real ? &store_scalar<double>
                              : &store_scalar<bool>;
      n.slot = static_cast<std::uint32_t>(lhs.slot);
    } else {
      const std::size_t rank = lhs.args.size();
      if (rank == 0 || rank > static_cast<std::size_t>(kMaxRank)) return;
      if (!subscripts(lhs, n, cost)) return;
      const std::size_t r = rank_index(rank);
      if (n.affine != nullptr)
        n.fn.l = k == K::Int    ? kStoreElement<Int, true>[r]
                 : k == K::Real ? kStoreElement<double, true>[r]
                                : kStoreElement<bool, true>[r];
      else
        n.fn.l = k == K::Int    ? kStoreElement<Int, false>[r]
                 : k == K::Real ? kStoreElement<double, false>[r]
                                : kStoreElement<bool, false>[r];
    }
    s.code[0] = &n;
    s.code_cost = cost;
  }

  Closures& out_;
  const CostModel& costs_;
  std::unordered_map<const LExpr*, Code> params_;
  std::vector<bool> int_index_;  ///< per slot of the unit being compiled
};

}  // namespace

void compile_closures(LoweredProgram& program, const CostModel& costs) {
  ClosureCompiler compiler(program.closures, costs);
  for (const auto& unit : program.units) compiler.compile(*unit);
}

}  // namespace polaris
