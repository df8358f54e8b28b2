#include "support/ring_fifo.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <utility>

#include "support/random.h"

namespace adaptbf {
namespace {

TEST(RingFifo, StartsEmpty) {
  RingFifo<int> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.size(), 0u);
}

// Random pushes and pops against std::deque: order survives every wrap of
// the head and every doubling of the capacity.
TEST(RingFifo, MatchesDequeAcrossWrapsAndGrowth) {
  Xoshiro256 rng(0xf1f0);
  RingFifo<std::uint64_t> fifo;
  std::deque<std::uint64_t> model;
  std::uint64_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    // Push-biased in the first half, pop-biased in the second.
    const std::uint64_t push_odds = step < 10000 ? 6 : 4;
    if (model.empty() || rng.next_in(0, 9) < push_odds) {
      fifo.push_back(next);
      model.push_back(next);
      ++next;
    } else {
      ASSERT_EQ(fifo.front(), model.front());
      fifo.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(fifo.size(), model.size());
  }
  while (!model.empty()) {
    ASSERT_EQ(fifo.front(), model.front());
    fifo.pop_front();
    model.pop_front();
  }
  EXPECT_TRUE(fifo.empty());
}

TEST(RingFifo, MovedFromIsEmptyAndReusable) {
  RingFifo<int> source;
  for (int i = 0; i < 20; ++i) source.push_back(i);
  source.pop_front();
  RingFifo<int> target(std::move(source));
  EXPECT_EQ(target.size(), 19u);
  EXPECT_EQ(target.front(), 1);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  source.push_back(7);
  EXPECT_EQ(source.front(), 7);
}

}  // namespace
}  // namespace adaptbf
