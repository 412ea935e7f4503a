// Reproduces Table 1: NAS BT under no/short/long SMM intervals, classes
// A/B/C, 1/4/16 nodes, 1 or 4 MPI ranks per node.
//
// Usage: table1_bt [--trials=N] [--quick] [--jobs=N]
#include "nas_table.h"

int main(int argc, char** argv) {
  using namespace smilab;
  const auto args = benchtool::BenchArgs::parse(argc, argv);
  NasRunOptions options;
  options.trials = args.trials;
  options.jobs = args.jobs;
  benchtool::BenchJson json{"table1_bt"};
  benchtool::print_nas_table(
      "Table 1: BT with no (0), short (1) and long (2) SMM intervals",
      NasBenchmark::kBT, {1, 4, 16}, options, &json);
  json.write();
  return 0;
}
