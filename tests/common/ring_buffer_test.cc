#include "common/ring_buffer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sqlb {
namespace {

TEST(RingBufferTest, StartsEmpty) {
  RingBuffer<int> buffer(3);
  EXPECT_TRUE(buffer.empty());
  EXPECT_FALSE(buffer.full());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 3u);
}

TEST(RingBufferTest, PushWithoutEviction) {
  RingBuffer<int> buffer(3);
  EXPECT_FALSE(buffer.Push(1));
  EXPECT_FALSE(buffer.Push(2));
  EXPECT_FALSE(buffer.Push(3));
  EXPECT_TRUE(buffer.full());
  EXPECT_EQ(buffer.oldest(), 1);
  EXPECT_EQ(buffer.newest(), 3);
}

TEST(RingBufferTest, EvictsOldestWhenFull) {
  RingBuffer<int> buffer(3);
  buffer.Push(1);
  buffer.Push(2);
  buffer.Push(3);
  int evicted = 0;
  EXPECT_TRUE(buffer.Push(4, &evicted));
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(buffer.oldest(), 2);
  EXPECT_EQ(buffer.newest(), 4);
  EXPECT_EQ(buffer.size(), 3u);
}

TEST(RingBufferTest, AtIsOldestFirst) {
  RingBuffer<int> buffer(3);
  for (int i = 1; i <= 5; ++i) buffer.Push(i);
  EXPECT_EQ(buffer.at(0), 3);
  EXPECT_EQ(buffer.at(1), 4);
  EXPECT_EQ(buffer.at(2), 5);
}

TEST(RingBufferTest, ForEachVisitsInOrder) {
  RingBuffer<int> buffer(4);
  for (int i = 0; i < 10; ++i) buffer.Push(i);
  std::vector<int> seen;
  buffer.ForEach([&seen](const int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{6, 7, 8, 9}));
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<int> buffer(2);
  buffer.Push(1);
  buffer.Push(2);
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
  buffer.Push(9);
  EXPECT_EQ(buffer.oldest(), 9);
}

TEST(RingBufferTest, CapacityOneAlwaysKeepsNewest) {
  RingBuffer<std::string> buffer(1);
  buffer.Push("a");
  std::string evicted;
  EXPECT_TRUE(buffer.Push("b", &evicted));
  EXPECT_EQ(evicted, "a");
  EXPECT_EQ(buffer.newest(), "b");
  EXPECT_EQ(buffer.oldest(), "b");
}

TEST(RingBufferTest, LongWraparoundKeepsWindowSemantics) {
  // Mirrors the "k last interactions" use: after many pushes the buffer
  // holds exactly the last k values.
  const std::size_t k = 7;
  RingBuffer<int> buffer(k);
  for (int i = 0; i < 1000; ++i) buffer.Push(i);
  for (std::size_t j = 0; j < k; ++j) {
    EXPECT_EQ(buffer.at(j), static_cast<int>(1000 - k + j));
  }
}

TEST(RingBufferTest, MatchesModelPushEvictionArithmetic) {
  // The capacities PagedRingTest runs (63 doubles fill one 512-byte pooled
  // chunk), against a plain vector model of the eviction order.
  for (std::size_t capacity : {1, 37, 63, 64, 500}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    RingBuffer<double> buffer(capacity);
    std::vector<double> model;
    std::size_t model_head = 0;
    const int pushes = static_cast<int>(3 * capacity) + 500;
    for (int i = 0; i < pushes; ++i) {
      const double value = 0.25 * i;
      double evicted = -1.0;
      const bool did_evict = buffer.Push(value, &evicted);
      if (model.size() < capacity) {
        model.push_back(value);
        EXPECT_FALSE(did_evict);
      } else {
        EXPECT_TRUE(did_evict);
        EXPECT_EQ(evicted, model[model_head]);
        model[model_head] = value;
        model_head = (model_head + 1) % capacity;
      }
      ASSERT_EQ(buffer.size(), model.size());
      ASSERT_EQ(buffer.oldest(), model[model_head % model.size()]);
      for (std::size_t k = 0; k < buffer.size(); ++k) {
        ASSERT_EQ(buffer.at(k), model[(model_head + k) % capacity]) << k;
      }
    }
  }
}

TEST(RingBufferDeathTest, OutOfRangeAccessAborts) {
  RingBuffer<int> buffer(2);
  buffer.Push(1);
  EXPECT_DEATH(buffer.at(1), "out of range");
  EXPECT_DEATH(RingBuffer<int>(0), "capacity");
}

}  // namespace
}  // namespace sqlb
