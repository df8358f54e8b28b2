// Every sweep and scenario file checked in under examples/ loads, so a
// file that no other test or CI step reads cannot rot unseen.
#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>

#include "search/search_io.h"
#include "sweep/sweep_io.h"
#include "workload/scenario_io.h"

namespace adaptbf {
namespace {

namespace fs = std::filesystem;

TEST(ExampleFiles, EverySweepAndScenarioFileLoads) {
  const fs::path examples = ADAPTBF_SOURCE_DIR "/examples";
  std::size_t sweeps = 0;
  for (const auto& entry :
       fs::recursive_directory_iterator(examples / "sweeps")) {
    if (entry.path().extension() != ".ini") continue;
    ++sweeps;
    const SweepLoadResult loaded = load_sweep_file(entry.path().string());
    EXPECT_TRUE(loaded.ok()) << entry.path() << ": " << loaded.error;
    if (loaded.has_search()) {
      const SearchLoadResult search = load_search(loaded.search_entries);
      EXPECT_TRUE(search.ok()) << entry.path() << ": " << search.error;
    }
  }
  std::size_t scenarios = 0;
  for (const auto& entry : fs::directory_iterator(examples / "scenarios")) {
    if (entry.path().extension() != ".ini") continue;
    ++scenarios;
    const ScenarioLoadResult loaded =
        load_scenario_file(entry.path().string());
    EXPECT_TRUE(loaded.ok()) << entry.path() << ": " << loaded.error;
  }
  // A wrong path would otherwise pass with no files at all.
  EXPECT_GE(sweeps, 5u);
  EXPECT_GE(scenarios, 1u);
}

}  // namespace
}  // namespace adaptbf
