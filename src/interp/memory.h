// Storage for the PF77 interpreter: scalars, arrays with resolved bounds,
// by-reference argument binding, and COMMON blocks.
//
// Array payloads are shared_ptr vectors so that whole-array arguments
// alias the caller's storage (Fortran by-reference semantics), including
// reshaped/linearized views with an element offset.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "interp/value.h"

namespace polaris {

/// Highest array rank the interpreter stores (the Fortran 77 limit);
/// subscripts are evaluated into fixed buffers of this size.
inline constexpr int kMaxRank = 7;

/// A resolved array: payload + per-dimension [lo, hi] bounds + flat offset
/// into the payload (for views starting mid-array).  The column-major
/// strides are cached when the bounds are set.
struct ArrayStorage {
  std::shared_ptr<std::vector<Value>> data;
  std::int64_t offset = 0;
  int rank = 0;
  std::int64_t lo[kMaxRank] = {};
  std::int64_t hi[kMaxRank] = {};
  std::int64_t stride[kMaxRank] = {};

  /// Drops every dimension (bounds are then re-added one by one).
  void clear_bounds() { rank = 0; }
  /// Appends dimension [l, h]; checks the rank limit.
  void add_dim(std::int64_t l, std::int64_t h);

  /// Elements spanned by the dimensions set so far.
  std::int64_t element_count() const {
    if (rank == 0) return 1;
    return stride[rank - 1] * (hi[rank - 1] - lo[rank - 1] + 1);
  }

  /// Column-major (Fortran) flat index of a subscript tuple; rank, bounds
  /// and storage checked.
  std::size_t flat_index(const std::int64_t* subs, std::size_t n) const {
    interp_check_msg(n == static_cast<std::size_t>(rank),
                     "subscript rank mismatch at run time");
    std::int64_t flat = offset;
    for (int d = 0; d < rank; ++d) {
      interp_check_msg(subs[d] >= lo[d] && subs[d] <= hi[d],
                       "array subscript out of declared bounds");
      flat += (subs[d] - lo[d]) * stride[d];
    }
    interp_check_msg(
        flat >= 0 && static_cast<std::size_t>(flat) < data->size(),
        "flat array index out of storage");
    return static_cast<std::size_t>(flat);
  }
  std::size_t flat_index(std::initializer_list<std::int64_t> subs) const {
    return flat_index(subs.begin(), subs.size());
  }

  Value& at(std::initializer_list<std::int64_t> subs) {
    return (*data)[flat_index(subs)];
  }
};

/// One variable's storage: scalar or array.
struct Cell {
  bool is_array = false;
  Value scalar;
  ArrayStorage array;
};

/// COMMON storage, shared across activations, keyed by (block, member
/// name) — the PF77 convention of name-matched common members.
class CommonStore {
 public:
  Cell* lookup(const std::string& block, const std::string& name);
  Cell* create(const std::string& block, const std::string& name);

 private:
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Cell>>
      cells_;
};

/// One activation frame: a fixed number of slots, each unbound or bound
/// to a cell.  Cells for locals are owned by the frame; formals and
/// commons point elsewhere.
class Frame {
 public:
  explicit Frame(std::size_t slots) : cells_(slots, nullptr) {}

  /// Binds `slot` to frame-owned storage.
  Cell* create_local(std::size_t slot);
  /// Binds `slot` to external storage (argument/common aliasing).
  void bind(std::size_t slot, Cell* cell);

  Cell* lookup(std::size_t slot) const { return cells_[slot]; }
  Cell* const* cells() const { return cells_.data(); }
  bool bound(std::size_t slot) const { return cells_[slot] != nullptr; }

 private:
  std::vector<Cell*> cells_;
  std::vector<std::unique_ptr<Cell>> owned_;
};

}  // namespace polaris
