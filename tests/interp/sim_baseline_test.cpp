// Pins the simulator: the Figure 6 and Figure 7 runs must reproduce
// tests/data/sim_baseline.json byte for byte (refresh deliberately with
// tools/update_sim_baseline.sh).
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "sim_baseline.h"

namespace polaris {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

TEST(SimBaseline, RunsMatchCheckedInGolden) {
  std::ifstream in(POLARIS_SIM_BASELINE);
  ASSERT_TRUE(in.good()) << "golden missing: " << POLARIS_SIM_BASELINE;
  std::ostringstream text;
  text << in.rdbuf();

  const std::vector<std::string> want = lines_of(text.str());
  const std::vector<std::string> got = lines_of(sim_baseline_document());
  ASSERT_EQ(got.size(), want.size()) << "run count changed";
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "golden line " << i + 1;
}

}  // namespace
}  // namespace polaris
