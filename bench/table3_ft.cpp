// Reproduces Table 3: NAS FT under no/short/long SMM intervals, classes
// A/B/C, 1-16 nodes, 1 or 4 MPI ranks per node. The "-" rows mirror the
// cells the paper does not report (FT class C on 1-2 nodes with one rank
// per node); see EXPERIMENTS.md.
//
// Usage: table3_ft [--trials=N] [--quick] [--jobs=N]
#include "nas_table.h"

int main(int argc, char** argv) {
  using namespace smilab;
  const auto args = benchtool::BenchArgs::parse(argc, argv);
  NasRunOptions options;
  options.trials = args.trials;
  options.jobs = args.jobs;
  benchtool::BenchJson json{"table3_ft"};
  benchtool::print_nas_table(
      "Table 3: FT with no (0), short (1) and long (2) SMM intervals",
      NasBenchmark::kFT, {1, 2, 4, 8, 16}, options, &json);
  json.write();
  return 0;
}
