// Reproduces Table 2: NAS EP under no/short/long SMM intervals, classes
// A/B/C, 1-16 nodes, 1 or 4 MPI ranks per node.
//
// Usage: table2_ep [--trials=N] [--quick] [--jobs=N]
#include "nas_table.h"

int main(int argc, char** argv) {
  using namespace smilab;
  const auto args = benchtool::BenchArgs::parse(argc, argv);
  NasRunOptions options;
  options.trials = args.trials;
  options.jobs = args.jobs;
  benchtool::BenchJson json{"table2_ep"};
  benchtool::print_nas_table(
      "Table 2: EP with no (0), short (1) and long (2) SMM intervals",
      NasBenchmark::kEP, {1, 2, 4, 8, 16}, options, &json);
  json.write();
  return 0;
}
