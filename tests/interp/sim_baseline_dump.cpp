// Prints the simulator golden document to stdout
// (tools/update_sim_baseline.sh writes it to tests/data/sim_baseline.json).
#include <cstdio>

#include "sim_baseline.h"

int main() {
  std::fputs(polaris::sim_baseline_document().c_str(), stdout);
  return 0;
}
