#include "interp/memory.h"

namespace polaris {

void ArrayStorage::add_dim(std::int64_t l, std::int64_t h) {
  interp_check_msg(rank < kMaxRank, "array rank exceeds the supported 7");
  stride[rank] = element_count();
  lo[rank] = l;
  hi[rank] = h;
  ++rank;
}

Cell* CommonStore::lookup(const std::string& block, const std::string& name) {
  auto it = cells_.find({block, name});
  return it == cells_.end() ? nullptr : it->second.get();
}

Cell* CommonStore::create(const std::string& block, const std::string& name) {
  auto cell = std::make_unique<Cell>();
  Cell* raw = cell.get();
  auto [it, inserted] = cells_.emplace(std::make_pair(block, name),
                                       std::move(cell));
  interp_check_msg(inserted, "duplicate common cell " + block + "/" + name);
  return raw;
}

Cell* Frame::create_local(std::size_t slot) {
  interp_check_msg(!bound(slot), "slot already bound");
  auto cell = std::make_unique<Cell>();
  Cell* raw = cell.get();
  owned_.push_back(std::move(cell));
  cells_[slot] = raw;
  return raw;
}

void Frame::bind(std::size_t slot, Cell* cell) {
  interp_check(cell != nullptr);
  interp_check_msg(!bound(slot), "slot already bound");
  cells_[slot] = cell;
}

}  // namespace polaris
