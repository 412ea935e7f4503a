// Tests for the CLI layer: option parsing and command behaviour (run
// in-process against string streams).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

#include "smilab/cli/commands.h"
#include "smilab/cli/options.h"

namespace smilab {
namespace {

Options parse_ok(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"smilab"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::string error;
  const auto options =
      Options::parse(static_cast<int>(argv.size()), argv.data(), &error);
  EXPECT_TRUE(options.has_value()) << error;
  return *options;
}

TEST(OptionsTest, ParsesCommandAndFlags) {
  const Options options =
      parse_ok({"nas", "--workload=ft", "--nodes=8", "--htt"});
  EXPECT_EQ(options.command(), "nas");
  EXPECT_EQ(options.get("workload", ""), "ft");
  std::string error;
  EXPECT_EQ(options.get_int("nodes", 0, &error), 8);
  EXPECT_TRUE(options.get_bool("htt", false));
  EXPECT_TRUE(error.empty());
}

TEST(OptionsTest, DefaultsWhenMissing) {
  const Options options = parse_ok({"convolve"});
  std::string error;
  EXPECT_EQ(options.get("case", "cu"), "cu");
  EXPECT_EQ(options.get_int("cpus", 8, &error), 8);
  EXPECT_DOUBLE_EQ(options.get_double("x", 1.5, &error), 1.5);
  EXPECT_FALSE(options.get_bool("htt", false));
}

TEST(OptionsTest, RejectsMalformedInput) {
  std::string error;
  const char* extra_positional[] = {"smilab", "nas", "oops"};
  EXPECT_FALSE(Options::parse(3, extra_positional, &error).has_value());
  EXPECT_NE(error.find("positional"), std::string::npos);

  const char* empty_flag[] = {"smilab", "--"};
  EXPECT_FALSE(Options::parse(2, empty_flag, &error).has_value());

  const char* empty_name[] = {"smilab", "--=3"};
  EXPECT_FALSE(Options::parse(2, empty_name, &error).has_value());
}

TEST(OptionsTest, TypeErrorsReported) {
  const Options options = parse_ok({"nas", "--nodes=abc"});
  std::string error;
  EXPECT_EQ(options.get_int("nodes", 7, &error), 7);
  EXPECT_NE(error.find("--nodes"), std::string::npos);
}

TEST(OptionsTest, UnconsumedFlagsDetected) {
  const Options options = parse_ok({"nas", "--workload=ep", "--typo=1"});
  (void)options.get("workload", "");
  const auto extra = options.unconsumed();
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0], "typo");
}

int run(std::initializer_list<const char*> args, std::string* out_text,
        std::string* err_text = nullptr) {
  std::vector<const char*> argv{"smilab"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::ostringstream out, err;
  const int rc =
      run_cli(static_cast<int>(argv.size()), argv.data(), out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return rc;
}

TEST(CliTest, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(run({"help"}, &out), 0);
  EXPECT_NE(out.find("usage: smilab"), std::string::npos);
  EXPECT_NE(out.find("unixbench"), std::string::npos);
}

TEST(CliTest, NoCommandIsAnError) {
  std::string out;
  EXPECT_EQ(run({}, &out), 2);
  EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string out, err;
  EXPECT_EQ(run({"frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(CliTest, UnknownFlagFails) {
  std::string out, err;
  EXPECT_EQ(run({"convolve", "--cpuz=4"}, &out, &err), 2);
  EXPECT_NE(err.find("--cpuz"), std::string::npos);
}

TEST(CliTest, NasCommandReportsSlowdown) {
  std::string out;
  const int rc = run({"nas", "--workload=ep", "--class=A", "--nodes=2",
                      "--smi=long", "--trials=2"},
                     &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("NAS EP class A"), std::string::npos);
  EXPECT_NE(out.find("paper baseline 11.69"), std::string::npos);
  EXPECT_NE(out.find("% slowdown"), std::string::npos);
}

TEST(CliTest, NasRejectsInvalidRankCount) {
  std::string out, err;
  const int rc = run({"nas", "--workload=bt", "--nodes=3"}, &out, &err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("square"), std::string::npos);
}

TEST(CliTest, NasRejectsRetainedFlag) {
  // NAS cells always stream their rank programs; there is no residency
  // switch, so --retained is an unknown flag like any other.
  std::string out, err;
  const int rc = run({"nas", "--workload=ep", "--class=A", "--nodes=2",
                      "--retained"},
                     &out, &err);
  EXPECT_EQ(rc, 2);
  EXPECT_NE(err.find("unknown flag(s): --retained"), std::string::npos);
  EXPECT_EQ(out.find("NAS EP"), std::string::npos);
  std::string usage;
  EXPECT_EQ(run({"help"}, &usage), 0);
  EXPECT_EQ(usage.find("--retained"), std::string::npos);
}

TEST(CliTest, ConvolveCommandRuns) {
  std::string out;
  const int rc =
      run({"convolve", "--case=cf", "--cpus=4", "--smi=long", "--gap-ms=200"},
          &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("CacheFriendly"), std::string::npos);
  EXPECT_NE(out.find("% slowdown"), std::string::npos);
}

TEST(CliTest, UnixbenchCommandRuns) {
  std::string out;
  const int rc = run({"unixbench", "--cpus=2", "--smi=long", "--gap-ms=600"},
                     &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("total index"), std::string::npos);
  EXPECT_NE(out.find("Dhrystone"), std::string::npos);
}

TEST(CliTest, DetectCommandFindsSmis) {
  std::string out;
  const int rc = run({"detect", "--smi=long", "--gap-ms=1000",
                      "--duration-s=10", "--window-ms=1000",
                      "--period-ms=1000"},
                     &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("recall 100"), std::string::npos);
}

TEST(CliTest, RimCommandReportsPolicy) {
  std::string out;
  const int rc = run({"rim", "--scan-mb=16", "--interval-ms=1000"}, &out);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("duty cycle"), std::string::npos);
  EXPECT_NE(out.find("detection latency"), std::string::npos);
  EXPECT_NE(out.find("BIOSBITS"), std::string::npos);
}

TEST(CliTest, TraceFlagWritesChromeJson) {
  const std::string path = ::testing::TempDir() + "/smilab_cli_trace.json";
  std::string out;
  const int rc = run({"detect", "--smi=long", "--duration-s=5",
                      ("--trace=" + path).c_str()},
                     &out);
  EXPECT_EQ(rc, 0);
  std::ifstream file{path};
  ASSERT_TRUE(file.good());
  const std::string contents{std::istreambuf_iterator<char>{file},
                             std::istreambuf_iterator<char>{}};
  EXPECT_NE(contents.find("traceEvents"), std::string::npos);
  EXPECT_NE(contents.find("SMM"), std::string::npos);
}

}  // namespace
}  // namespace smilab
