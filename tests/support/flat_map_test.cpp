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
// lookup and every iteration agrees with the reference. The inputs draw
// keys from a small dense range; from a pool spread over the whole uint32
// range, both ends included; and from runs spaced by Fibonacci numbers,
// which a Fibonacci (multiplicative) hash sends to the same or adjacent
// index buckets, so lookups probe past colliding keys. The last two also
// erase_if() a seeded subset and re-insert, cycling the index rebuild.
TEST(FlatMap, MatchesStdMapUnderRandomInsertsAndClears) {
  struct Input {
    const char* name;
    std::vector<std::uint32_t> pool;  // empty: keys 0..300
    int erase_every;                  // 0: never erase_if
  };
  Xoshiro256 pool_rng(0xb175);
  std::vector<std::uint32_t> wide = {0u, 1u, 0x7fffffffu, 0x80000000u,
                                     0xfffffffeu, 0xffffffffu};
  while (wide.size() < 400)
    wide.push_back(static_cast<std::uint32_t>(pool_rng.next()));
  std::vector<std::uint32_t> colliding;
  for (const std::uint32_t step : {102334155u, 165580141u, 2971215073u})
    for (std::uint32_t j = 0; j < 60; ++j)
      colliding.push_back(0xffffffffu - j * step);  // wraps mod 2^32
  const Input inputs[] = {{"dense", {}, 0},
                          {"whole uint32 range", wide, 700},
                          {"colliding", colliding, 450}};
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    Xoshiro256 rng(0xf1a7);
    Map flat;
    std::map<std::uint32_t, std::uint64_t> model;
    for (int step = 0; step < 20000; ++step) {
      if (step % 2500 == 2499) {
        flat.clear();
        model.clear();
        ASSERT_EQ(flat.size(), 0u);
      }
      if (input.erase_every != 0 && step % input.erase_every == 0) {
        const std::uint64_t salt = rng.next();
        const auto doomed = [salt](std::uint32_t key) {
          return ((key ^ salt) & 3u) == 0;
        };
        flat.erase_if([&](std::uint32_t key, std::uint64_t&) {
          return doomed(key);
        });
        std::erase_if(model,
                      [&](const auto& entry) { return doomed(entry.first); });
        expect_matches(flat, model);
      }
      const auto key =
          input.pool.empty()
              ? static_cast<std::uint32_t>(rng.next_in(0, 300))
              : input.pool[rng.next_in(0, input.pool.size() - 1)];
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
    // Every pool key, present or absent, looks up as the model says.
    for (const std::uint32_t key : input.pool) {
      const auto it = model.find(key);
      const std::uint64_t* found = flat.find(key);
      ASSERT_EQ(found != nullptr, it != model.end()) << key;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
  }
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
