#include "interp/memory.h"

#include <gtest/gtest.h>

namespace polaris {
namespace {

ArrayStorage make_array(std::vector<std::pair<std::int64_t, std::int64_t>> b) {
  ArrayStorage a;
  for (const auto& [lo, hi] : b) a.add_dim(lo, hi);
  a.data = std::make_shared<std::vector<Value>>(
      static_cast<std::size_t>(a.element_count()), Value::real(0.0));
  return a;
}

TEST(MemoryTest, ColumnMajorIndexing) {
  // Fortran order: first subscript varies fastest.
  ArrayStorage a = make_array({{1, 3}, {1, 4}});
  EXPECT_EQ(a.element_count(), 12);
  EXPECT_EQ(a.flat_index({1, 1}), 0u);
  EXPECT_EQ(a.flat_index({2, 1}), 1u);
  EXPECT_EQ(a.flat_index({1, 2}), 3u);
  EXPECT_EQ(a.flat_index({3, 4}), 11u);
}

TEST(MemoryTest, NonUnitLowerBounds) {
  ArrayStorage a = make_array({{0, 2}, {-1, 1}});
  EXPECT_EQ(a.element_count(), 9);
  EXPECT_EQ(a.flat_index({0, -1}), 0u);
  EXPECT_EQ(a.flat_index({2, 1}), 8u);
}

TEST(MemoryTest, OffsetViews) {
  // A view starting at element 5 of a 10-element payload, reshaped 1-D.
  ArrayStorage base = make_array({{1, 10}});
  ArrayStorage view;
  view.data = base.data;
  view.offset = 4;  // element 5, 0-based
  view.add_dim(1, 6);
  view.at({1}) = Value::real(9.0);
  EXPECT_DOUBLE_EQ(base.at({5}).as_real(), 9.0);
}

TEST(MemoryTest, BoundsViolationAsserts) {
  ArrayStorage a = make_array({{1, 3}});
  EXPECT_THROW(a.flat_index({0}), InternalError);
  EXPECT_THROW(a.flat_index({4}), InternalError);
  EXPECT_THROW(a.flat_index({1, 1}), InternalError);  // rank mismatch
}

TEST(MemoryTest, FrameLocalAndBinding) {
  const std::size_t x = 1, y = 2;  // slots
  Frame f(3);
  Cell* cx = f.create_local(x);
  cx->scalar = Value::real(2.5);
  EXPECT_EQ(f.lookup(x), cx);
  EXPECT_EQ(f.lookup(y), nullptr);

  Frame g(3);
  g.bind(y, cx);  // aliasing: by-reference argument semantics
  g.lookup(y)->scalar = Value::real(7.0);
  EXPECT_DOUBLE_EQ(f.lookup(x)->scalar.as_real(), 7.0);
}

TEST(MemoryTest, DoubleBindAsserts) {
  Frame f(2);
  Cell* c = f.create_local(1);
  EXPECT_THROW(f.create_local(1), InternalError);
  EXPECT_THROW(f.bind(1, c), InternalError);
}

TEST(MemoryTest, CommonStoreSharedByBlockAndName) {
  CommonStore commons;
  EXPECT_EQ(commons.lookup("blk", "x"), nullptr);
  Cell* c = commons.create("blk", "x");
  EXPECT_EQ(commons.lookup("blk", "x"), c);
  EXPECT_EQ(commons.lookup("other", "x"), nullptr);
  EXPECT_THROW(commons.create("blk", "x"), InternalError);
}

TEST(MemoryTest, ValueCoercion) {
  EXPECT_EQ(Value::real(2.9).coerce_to(Type::integer()).as_int(), 2);
  EXPECT_EQ(Value::real(-2.9).coerce_to(Type::integer()).as_int(), -2);
  EXPECT_DOUBLE_EQ(Value::integer(3).coerce_to(Type::real()).as_real(), 3.0);
  EXPECT_THROW(Value::logical(true).as_int(), InternalError);
  EXPECT_THROW(Value::integer(1).as_logical(), InternalError);
  EXPECT_EQ(Value::zero_of(Type::integer()).as_int(), 0);
  EXPECT_FALSE(Value::zero_of(Type::logical()).as_logical());
}

}  // namespace
}  // namespace polaris
