// Runtime values for the PF77 interpreter.
#pragma once

#include <cstdint>
#include <string>

#include "interp/check.h"
#include "ir/type.h"

namespace polaris {

/// A Fortran scalar value.  Real and double precision share a double
/// representation (sufficient for the reproduction's numeric checks).
class Value {
 public:
  Value() : kind_(TypeKind::Integer), i_(0) {}
  static Value integer(std::int64_t v) {
    Value x;
    x.kind_ = TypeKind::Integer;
    x.i_ = v;
    return x;
  }
  static Value real(double v) {
    Value x;
    x.kind_ = TypeKind::Real;
    x.d_ = v;
    return x;
  }
  static Value logical(bool v) {
    Value x;
    x.kind_ = TypeKind::Logical;
    x.b_ = v;
    return x;
  }
  /// Zero value of a declared type.
  static Value zero_of(Type t) {
    if (t.is_integer()) return integer(0);
    if (t.is_logical()) return logical(false);
    return real(0.0);
  }

  TypeKind kind() const { return kind_; }
  bool is_integer() const { return kind_ == TypeKind::Integer; }
  bool is_real() const {
    return kind_ == TypeKind::Real || kind_ == TypeKind::DoublePrecision;
  }
  bool is_logical() const { return kind_ == TypeKind::Logical; }

  std::int64_t as_int() const {
    if (is_integer()) return i_;
    if (is_real()) return static_cast<std::int64_t>(d_);  // truncation
    interp_check_msg(false, "logical used as integer");
  }
  double as_real() const {
    if (is_real()) return d_;
    if (is_integer()) return static_cast<double>(i_);
    interp_check_msg(false, "logical used as real");
  }
  bool as_logical() const {
    interp_check_msg(is_logical(), "non-logical used in condition");
    return b_;
  }

  /// The payload of a value whose kind the caller has checked.
  std::int64_t raw_int() const { return i_; }
  double raw_real() const { return d_; }
  bool raw_logical() const { return b_; }

  /// Coerces to the declared type of a storage location.
  Value coerce_to(Type t) const {
    if (t.is_integer()) return integer(as_int());
    if (t.is_logical()) return logical(as_logical());
    return real(as_real());
  }

  std::string to_string() const {
    if (is_integer()) return std::to_string(i_);
    if (is_logical()) return b_ ? "T" : "F";
    return std::to_string(d_);
  }

 private:
  TypeKind kind_;
  union {
    std::int64_t i_;
    double d_;
    bool b_;
  };
};

/// Integer exponentiation by repeated multiplication; `exp` >= 0.
inline std::int64_t int_power(std::int64_t base, std::int64_t exp) {
  std::int64_t r = 1;
  for (std::int64_t i = 0; i < exp; ++i) r *= base;
  return r;
}

}  // namespace polaris
