#include "runtime/pdtest.h"

#include <cmath>

// The shadow arrays are marked and analyzed only while a program runs,
// where no pass scope is active, so the fault-injection probe p_assert
// pays on every check could never fire.  pd_check raises the same
// InternalError (condition text, file, line, message) without it.
#define pd_check_msg(cond, msg)                                             \
  do {                                                                      \
    if (!(cond)) [[unlikely]]                                               \
      ::polaris::detail::assert_failed(#cond, __FILE__, __LINE__, (msg));   \
  } while (0)
#define pd_check(cond) pd_check_msg(cond, "")

namespace polaris {

ShadowArrays::ShadowArrays(std::size_t elements)
    : n_(elements),
      a_w_(elements, false),
      a_r_(elements, false),
      a_np_(elements, false),
      iter_state_(elements, IterState::None) {}

void ShadowArrays::begin_iteration() {
  pd_check_msg(!in_iteration_, "nested begin_iteration");
  in_iteration_ = true;
}

void ShadowArrays::record_read(std::size_t index) {
  pd_check(in_iteration_);
  pd_check_msg(index < n_, "shadow index out of range");
  ++accesses_;
  if (iter_state_[index] == IterState::None) {
    iter_state_[index] = IterState::ReadFirst;
    touched_.push_back(index);
  }
}

void ShadowArrays::record_write(std::size_t index) {
  pd_check(in_iteration_);
  pd_check_msg(index < n_, "shadow index out of range");
  ++accesses_;
  switch (iter_state_[index]) {
    case IterState::None:
      iter_state_[index] = IterState::Written;
      touched_.push_back(index);
      ++w_count_;
      if (!a_w_[index]) {
        a_w_[index] = true;
        ++m_count_;
      }
      break;
    case IterState::ReadFirst:
      iter_state_[index] = IterState::ReadThenWritten;
      ++w_count_;
      if (!a_w_[index]) {
        a_w_[index] = true;
        ++m_count_;
      }
      break;
    case IterState::Written:
    case IterState::ReadThenWritten:
      break;  // only the first write of an iteration marks
  }
}

void ShadowArrays::end_iteration() {
  pd_check(in_iteration_);
  for (std::size_t index : touched_) {
    switch (iter_state_[index]) {
      case IterState::ReadFirst:
        a_r_[index] = true;
        break;
      case IterState::ReadThenWritten:
        a_np_[index] = true;
        break;
      case IterState::Written:
        break;
      case IterState::None:
        p_unreachable("touched element with no state");
    }
    iter_state_[index] = IterState::None;
  }
  touched_.clear();
  in_iteration_ = false;
}

PdVerdict ShadowArrays::analyze() const {
  pd_check_msg(!in_iteration_, "analyze during an open iteration");
  PdVerdict v;
  for (std::size_t i = 0; i < n_; ++i) {
    if (a_w_[i] && a_r_[i]) v.flow_anti = true;
    if (a_w_[i] && a_np_[i]) v.not_privatizable = true;
  }
  v.output_deps = (w_count_ != m_count_);
  return v;
}

std::uint64_t ShadowArrays::cost(int processors) const {
  pd_check(processors >= 1);
  const std::uint64_t mark_cost = 2;   // per access marking
  const std::uint64_t merge_cost = 4;  // per element per merge stage
  std::uint64_t per_proc = accesses_ * mark_cost /
                           static_cast<std::uint64_t>(processors);
  std::uint64_t stages = 0;
  for (int p = 1; p < processors; p *= 2) ++stages;
  std::uint64_t merge =
      stages * merge_cost *
      (n_ / static_cast<std::uint64_t>(processors) + 1);
  return per_proc + merge;
}

}  // namespace polaris
