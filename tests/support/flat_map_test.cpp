#include "support/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "support/random.h"

namespace adaptbf {
namespace {

using Map = FlatMap<std::uint32_t, std::uint64_t>;

void expect_matches(const Map& flat,
                    const std::map<std::uint32_t, std::uint64_t>& model) {
  ASSERT_EQ(flat.size(), model.size());
  ASSERT_TRUE(std::is_sorted(flat.keys().begin(), flat.keys().end()));
  std::size_t i = 0;
  for (const auto& [key, value] : model) {
    ASSERT_EQ(flat.keys()[i], key);
    ASSERT_EQ(flat.values()[i], value);
    ++i;
  }
}

TEST(FlatMap, StartsEmpty) {
  Map map;
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.find(7), nullptr);
}

// Seeded out-of-order inserts, updates, lookups of present and absent keys
// and periodic clear()s against std::map: keys stay ascending, and every
// lookup and every iteration agrees with the reference.
TEST(FlatMap, MatchesStdMapUnderRandomInsertsAndClears) {
  Xoshiro256 rng(0xf1a7);
  Map flat;
  std::map<std::uint32_t, std::uint64_t> model;
  for (int step = 0; step < 20000; ++step) {
    if (step % 2500 == 2499) {
      flat.clear();
      model.clear();
      ASSERT_EQ(flat.size(), 0u);
    }
    const auto key = static_cast<std::uint32_t>(rng.next_in(0, 300));
    switch (rng.next_in(0, 2)) {
      case 0: {
        const auto [index, inserted] = flat.try_emplace(key);
        ASSERT_EQ(inserted, !model.contains(key)) << key;
        ASSERT_EQ(flat.keys()[index], key);
        if (inserted) {
          ASSERT_EQ(flat.values()[index], 0u);  // value-initialized
          model[key] = 0;
        }
        break;
      }
      case 1:
        flat[key] += step;
        model[key] += step;
        break;
      default: {
        const auto it = model.find(key);
        const std::uint64_t* found = flat.find(key);
        ASSERT_EQ(found != nullptr, it != model.end()) << key;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        break;
      }
    }
    if (step % 97 == 0) expect_matches(flat, model);
  }
  expect_matches(flat, model);
}

TEST(FlatMap, InsertKeepsIndicesOfSmallerKeys) {
  Map map;
  const std::size_t five = map.try_emplace(5).first;
  const std::size_t nine = map.try_emplace(9).first;
  map.try_emplace(12);
  EXPECT_EQ(map.keys()[five], 5u);
  EXPECT_EQ(map.keys()[nine], 9u);
  map.try_emplace(7);  // lands between 5 and 9: only 9 and 12 move
  EXPECT_EQ(map.keys()[five], 5u);
  EXPECT_EQ(map.keys()[nine + 1], 9u);
}

TEST(FlatMap, EraseIfVisitsInOrderOnceAndKeepsTheRest) {
  Xoshiro256 rng(0xe7a5e);
  Map flat;
  std::map<std::uint32_t, std::uint64_t> model;
  for (int i = 0; i < 200; ++i) {
    const auto key = static_cast<std::uint32_t>(rng.next_in(0, 1000));
    flat[key] = key * 3u;
    model[key] = key * 3u;
  }
  std::vector<std::uint32_t> visited;
  flat.erase_if([&visited](std::uint32_t key, std::uint64_t& value) {
    visited.push_back(key);
    ++value;  // survivors keep the update
    return key % 3 == 0;
  });
  std::vector<std::uint32_t> expected_visits;
  for (auto& [key, value] : model) {
    expected_visits.push_back(key);
    ++value;
  }
  std::erase_if(model, [](const auto& entry) { return entry.first % 3 == 0; });
  EXPECT_EQ(visited, expected_visits);
  expect_matches(flat, model);
}

}  // namespace
}  // namespace adaptbf
