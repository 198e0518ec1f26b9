// Tests for the CLI argument parser and command layer.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cli/args.h"
#include "cli/commands.h"
#include "gen/planted.h"
#include "io/edge_list_io.h"

namespace densest {
namespace {

// A small command exercising every flag type.
const CommandSpec& TestCommand() {
  static const CommandSpec kSpec = {
      "test",
      "<graph> <out>",
      "a command for parser tests",
      {DoubleFlag("eps", "0.5", "epsilon", 0), DoubleFlag("delta", "2", "step"),
       IntFlag("count", "10", "count", 1), BoolFlag("trace", "trace"),
       BoolFlag("verbose", "verbose"), StringFlag("name", "", "name"),
       EnumFlag("mode", "fast|slow", "mode")},
  };
  return kSpec;
}

const std::vector<FlagSpec>& TestGlobals() {
  static const std::vector<FlagSpec> kGlobals = {
      StringFlag("metrics-out", "", "metrics")};
  return kGlobals;
}

StatusOr<Args> Parse(std::vector<std::string> tokens) {
  return Args::Parse(TestCommand(), TestGlobals(), tokens);
}

TEST(ArgsTest, PositionalAndFlagsMixed) {
  // A bare bool flag never takes the next token, so positionals may
  // follow it.
  auto args = Parse({"graph.txt", "--trace", "out.txt", "--eps=0.25"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  ASSERT_EQ(args->positional().size(), 2u);
  EXPECT_EQ(args->positional()[0], "graph.txt");
  EXPECT_EQ(args->positional()[1], "out.txt");
  EXPECT_EQ(args->Double("eps"), 0.25);
  EXPECT_TRUE(args->Bool("trace"));
}

TEST(ArgsTest, EqualsAndSpaceSeparatedValues) {
  auto args = Parse({"g", "o", "--eps=0.25", "--delta", "4", "--name", "x"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args->Double("eps"), 0.25);
  EXPECT_EQ(args->Double("delta"), 4.0);
  EXPECT_EQ(args->String("name"), "x");
}

TEST(ArgsTest, DefaultsFillFlagsNotGiven) {
  auto args = Parse({"g", "o"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args->Double("eps"), 0.5);
  EXPECT_EQ(args->Int("count"), 10);
  EXPECT_FALSE(args->Bool("trace"));
  EXPECT_EQ(args->String("name"), "");
  EXPECT_EQ(args->String("mode"), "fast");
  EXPECT_EQ(args->String("metrics-out"), "");
}

TEST(ArgsTest, BareFlagIsTrue) {
  auto args = Parse({"g", "o", "--trace"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->Bool("trace"));
  EXPECT_FALSE(args->Bool("verbose"));
}

TEST(ArgsTest, BareFlagFollowedByFlagStaysTrue) {
  auto args = Parse({"g", "o", "--trace", "--eps=1"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args->Bool("trace"));
}

TEST(ArgsTest, BoolFlagTakesOnlyLiteralValues) {
  auto off = Parse({"g", "--trace", "false", "o"});
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_FALSE(off->Bool("trace"));
  EXPECT_EQ(off->positional().size(), 2u);
  auto eq = Parse({"g", "o", "--trace=0", "--verbose", "1"});
  ASSERT_TRUE(eq.ok()) << eq.status().ToString();
  EXPECT_FALSE(eq->Bool("trace"));
  EXPECT_TRUE(eq->Bool("verbose"));
}

TEST(ArgsTest, TypeErrors) {
  EXPECT_FALSE(Parse({"g", "o", "--eps=abc"}).ok());
  EXPECT_FALSE(Parse({"g", "o", "--count=1.5x"}).ok());
  EXPECT_FALSE(Parse({"g", "o", "--trace=maybe"}).ok());
  EXPECT_FALSE(Parse({"g", "o", "--mode=medium"}).ok());
  EXPECT_FALSE(Parse({"g", "o", "--count"}).ok());  // no value
}

TEST(ArgsTest, MinimumEnforced) {
  EXPECT_FALSE(Parse({"g", "o", "--count=0"}).ok());
  EXPECT_FALSE(Parse({"g", "o", "--eps", "-0.5"}).ok());
  EXPECT_FALSE(Parse({"g", "o", "--eps=nan"}).ok());
  auto args = Parse({"g", "o", "--count=1", "--eps=0"});
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args->Int("count"), 1);
}

TEST(ArgsTest, MalformedFlagRejected) {
  EXPECT_FALSE(Parse({"g", "o", "--=3"}).ok());
  EXPECT_FALSE(Parse({"g", "o", "--"}).ok());
}

TEST(ArgsTest, UnknownFlagAndPositionalCountRejected) {
  auto unknown = Parse({"g", "o", "--typo=2"});
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("--typo"), std::string::npos);
  EXPECT_FALSE(Parse({"g"}).ok());
  EXPECT_FALSE(Parse({"g", "o", "extra"}).ok());
  EXPECT_TRUE(Parse({"g", "o", "--metrics-out=m.prom"}).ok());  // global
}

TEST(ArgsDeathTest, ReadingAnUndeclaredFlagAborts) {
  auto args = Parse({"g", "o"});
  ASSERT_TRUE(args.ok());
  EXPECT_DEATH((void)args->Int("undeclared"), "--undeclared is read but");
  EXPECT_DEATH((void)args->Bool("eps"), "--eps is read but");  // a double
}

TEST(CliTableTest, EveryCommandsDefaultsParse) {
  // Parsing no flags checks every table default against its own type,
  // minimum and choices.
  for (const CommandSpec& c : CliCommands()) {
    std::vector<std::string> tokens;
    for (char ch : c.positionals) {
      if (ch == '<') tokens.push_back("x");
    }
    auto args = Args::Parse(c, CliGlobalFlags(), tokens);
    EXPECT_TRUE(args.ok()) << c.name << ": " << args.status().ToString();
  }
}

TEST(CliTableTest, UsageListsEveryFlag) {
  const std::string usage = CliUsage();
  for (const CommandSpec& c : CliCommands()) {
    const std::string block = CommandUsage(c.name);
    for (const FlagSpec& f : c.flags) {
      EXPECT_NE(block.find("--" + std::string(f.name)), std::string::npos)
          << c.name << " --" << f.name;
    }
    EXPECT_NE(usage.find("  " + std::string(c.name)), std::string::npos)
        << c.name;
  }
  for (const FlagSpec& f : CliGlobalFlags()) {
    EXPECT_NE(usage.find("--" + std::string(f.name)), std::string::npos);
  }
  EXPECT_NE(CommandUsage("chaos").find("--readers=2"), std::string::npos);
}

class CliCommandTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/cli_graph.txt";
    // Sparse background plus a planted near-clique of 20 nodes.
    PlantedGraph pg = PlantDenseBlocks(500, 1000, {{20, 1.0}}, 3);
    ASSERT_TRUE(WriteEdgeListText(path_, pg.edges).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string Run(const std::string& command,
                  std::vector<std::string> tokens, Status* status) {
    tokens.insert(tokens.begin(), path_);
    std::ostringstream out;
    *status = RunCliCommand(command, tokens, out);
    return out.str();
  }

  std::string path_;
};

TEST_F(CliCommandTest, StatsPrintsCounts) {
  Status status;
  std::string out = Run("stats", {}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("|V|=500"), std::string::npos);
  EXPECT_NE(out.find("power-law"), std::string::npos);
}

TEST_F(CliCommandTest, UndirectedFindsPlantedClique) {
  Status status;
  std::string out = Run("undirected", {"--eps=0.1"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("algorithm 1"), std::string::npos);
  // The 20-clique (plus any background edges that landed inside it).
  EXPECT_NE(out.find("rho=9."), std::string::npos);
  EXPECT_NE(out.find("|S|=20"), std::string::npos);
}

TEST_F(CliCommandTest, UndirectedMinSizeUsesAlgorithm2) {
  Status status;
  std::string out = Run("undirected", {"--min-size=50"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("algorithm 2"), std::string::npos);
}

TEST_F(CliCommandTest, UndirectedSketchPath) {
  Status status;
  std::string out =
      Run("undirected", {"--sketch-buckets=512", "--eps=0.5"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("sketched"), std::string::npos);
}

TEST_F(CliCommandTest, UndirectedTraceAndOutputFile) {
  std::string out_path = ::testing::TempDir() + "/cli_nodes.txt";
  Status status;
  std::string out = Run(
      "undirected", {"--trace", "--output=" + out_path, "--eps=0.1"},
      &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("pass  nodes"), std::string::npos);
  std::ifstream nodes(out_path);
  ASSERT_TRUE(nodes.good());
  int count = 0;
  std::string line;
  while (std::getline(nodes, line)) ++count;
  EXPECT_EQ(count, 20);  // the planted clique
  std::remove(out_path.c_str());
}

TEST_F(CliCommandTest, ExactMatchesKnownOptimum) {
  Status status;
  std::string out = Run("exact", {}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("rho*=9."), std::string::npos);
  EXPECT_NE(out.find("|S*|=20"), std::string::npos);
}

TEST_F(CliCommandTest, EnumerateListsSubgraphs) {
  Status status;
  std::string out =
      Run("enumerate", {"--count=2", "--min-density=1.5"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("dense subgraphs"), std::string::npos);
  EXPECT_NE(out.find("#1"), std::string::npos);
}

TEST_F(CliCommandTest, DirectedCSearchRuns) {
  Status status;
  std::string out = Run("directed", {"--eps=1"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("c-search"), std::string::npos);
}

TEST_F(CliCommandTest, DirectedSingleC) {
  Status status;
  std::string out = Run("directed", {"--c=1", "--trace"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("algorithm 3"), std::string::npos);
  EXPECT_NE(out.find("peel"), std::string::npos);
}

TEST_F(CliCommandTest, MapReduceUndirectedWithSpillAndTrace) {
  Status status;
  std::string out =
      Run("mapreduce", {"--eps=1", "--spill-budget=4096", "--trace"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("mapreduce algorithm 1"), std::string::npos);
  EXPECT_NE(out.find("input scans"), std::string::npos);
  EXPECT_NE(out.find("sim_sec"), std::string::npos);
}

TEST_F(CliCommandTest, MapReduceDirectedSingleC) {
  Status status;
  std::string out = Run("mapreduce", {"--directed", "--c=2"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("mapreduce algorithm 3"), std::string::npos);
}

TEST(CliMapReduceTest, RunsOutOfCoreOnBinaryInput) {
  // generate --format=bin, then mapreduce the file: the driver streams it
  // from disk and must agree with the streaming algorithm's CLI path.
  std::string path = ::testing::TempDir() + "/cli_mr.bin";
  std::ostringstream gen_out;
  ASSERT_TRUE(RunCliCommand("generate",
                            {"er", path, "--nodes=200", "--edges=900",
                             "--seed=9", "--format=bin"},
                            gen_out)
                  .ok());

  std::ostringstream mr_out;
  Status status = RunCliCommand(
      "mapreduce", {path, "--eps=0.5", "--spill-budget=1024"}, mr_out);
  ASSERT_TRUE(status.ok()) << status.ToString();

  std::ostringstream und_out;
  ASSERT_TRUE(RunCliCommand("undirected", {path, "--eps=0.5"}, und_out).ok());
  // Both report the same Summarize(...) line; compare the rho=... token.
  auto rho_of = [](const std::string& s) {
    size_t at = s.find("rho=");
    return s.substr(at, s.find(' ', at) - at);
  };
  EXPECT_EQ(rho_of(mr_out.str()), rho_of(und_out.str()));
  std::remove(path.c_str());
}

TEST(CliMapReduceTest, OutOfRangeEndpointFailsClosed) {
  // A .bin whose header says 10 nodes but holds the edge (5, 5000000): the
  // command must fail with InvalidArgument, both drivers, not crash.
  const std::string path = ::testing::TempDir() + "/cli_mr_oob.bin";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    const uint64_t magic = 0x44454e5345444745ULL;  // "DENSEDGE"
    const uint32_t num_nodes = 10, flags = 0;
    const uint64_t num_edges = 3;
    const uint32_t records[6] = {0, 1, 5, 5000000, 2, 3};
    f.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
    f.write(reinterpret_cast<const char*>(&num_nodes), sizeof(num_nodes));
    f.write(reinterpret_cast<const char*>(&flags), sizeof(flags));
    f.write(reinterpret_cast<const char*>(&num_edges), sizeof(num_edges));
    f.write(reinterpret_cast<const char*>(records), sizeof(records));
  }
  for (const char* mode : {"--directed=false", "--directed"}) {
    std::ostringstream out;
    Status status = RunCliCommand("mapreduce", {path, mode}, out);
    ASSERT_FALSE(status.ok()) << mode;
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << mode;
  }
  std::remove(path.c_str());
}

TEST_F(CliCommandTest, DynamicInsertOnlyReplayWithCheckpoints) {
  Status status;
  std::string out = Run(
      "dynamic", {"--query-every=200", "--checkpoint-every=500"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("insert-only"), std::string::npos);
  EXPECT_NE(out.find("certified rho* <"), std::string::npos);
  EXPECT_NE(out.find("band=OK"), std::string::npos);
  EXPECT_NE(out.find("p99="), std::string::npos);
}

TEST_F(CliCommandTest, DynamicSlidingWindowReplay) {
  Status status;
  std::string out = Run(
      "dynamic",
      {"--window=300", "--eps=0.5", "--fallback=rebuild", "--query-every=0"},
      &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("sliding window 300"), std::string::npos);
  EXPECT_NE(out.find("del"), std::string::npos);
}

TEST_F(CliCommandTest, DynamicNeverFallbackReportsUncertified) {
  // The planted clique's density exceeds the boot window, and
  // --fallback=never forbids re-centering: the report must say so instead
  // of printing an impossible certified bound.
  Status status;
  std::string out =
      Run("dynamic", {"--fallback=never", "--query-every=0"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("UNCERTIFIED"), std::string::npos);
  EXPECT_EQ(out.find("certified rho* <"), std::string::npos);
}

TEST_F(CliCommandTest, DynamicRejectsBadFlagValues) {
  Status status;
  Run("dynamic", {"--fallback=sometimes"}, &status);
  ASSERT_FALSE(status.ok());
  Run("dynamic", {"--checkpoints=psychic"}, &status);
  ASSERT_FALSE(status.ok());
  Run("dynamic", {"--window=-1"}, &status);
  ASSERT_FALSE(status.ok());
}

TEST(CliDynamicTest, RunsOnBinaryInput) {
  std::string path = ::testing::TempDir() + "/cli_dyn.bin";
  std::ostringstream gen_out;
  ASSERT_TRUE(RunCliCommand("generate",
                            {"er", path, "--nodes=200", "--edges=900",
                             "--seed=9", "--format=bin"},
                            gen_out)
                  .ok());

  std::ostringstream dyn_out;
  Status status =
      RunCliCommand("dynamic", {path, "--checkpoint-every=400"}, dyn_out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(dyn_out.str().find("band=OK"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CliCommandTest, BareBoolFlagBeforeGraph) {
  std::ostringstream out;
  Status status = RunCliCommand("undirected", {"--trace", path_}, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("pass  nodes"), std::string::npos);
}

TEST_F(CliCommandTest, ServeAnswersQueries) {
  Status status;
  std::string out = Run("serve", {"--readers=1", "--qps=0"}, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.find("readers=1"), std::string::npos);
  EXPECT_NE(out.find("queries served"), std::string::npos);
  Run("serve", {"--query-mix=1,2"}, &status);
  EXPECT_FALSE(status.ok());
}

TEST(CliChaosTest, OneTinyScheduleSurvives) {
  std::ostringstream out;
  Status status = RunCliCommand(
      "chaos",
      {"--schedules=1", "--nodes=20", "--edges=120", "--window=40",
       "--checkpoint-every=60", "--snapshot-every=30", "--readers=1"},
      out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("1 schedules survived"), std::string::npos);
  EXPECT_EQ(RunCliCommand("chaos", {"--nodes=1"}, out).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(CliCommandTest, UnknownFlagRejected) {
  Status status;
  Run("undirected", {"--epsilonn=1"}, &status);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("epsilonn"), std::string::npos);
}

TEST_F(CliCommandTest, UnknownCommandRejected) {
  Status status;
  Run("frobnicate", {}, &status);
  ASSERT_FALSE(status.ok());
}

TEST(CliGenerateTest, GenerateErRoundTrips) {
  std::string path = ::testing::TempDir() + "/cli_gen.txt";
  std::ostringstream out;
  Status status = RunCliCommand(
      "generate", {"er", path, "--nodes=100", "--edges=300", "--seed=7"}, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(out.str().find("|E|=300"), std::string::npos);
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), 300u);
  std::remove(path.c_str());
}

TEST(CliGenerateTest, GenerateBinaryFormat) {
  std::string path = ::testing::TempDir() + "/cli_gen.bin";
  std::ostringstream out;
  ASSERT_TRUE(RunCliCommand("generate",
                            {"er", path, "--nodes=50", "--edges=100",
                             "--format=bin"},
                            out)
                  .ok());

  // stats must be able to read it back.
  std::ostringstream stats_out;
  Status status = RunCliCommand("stats", {path}, stats_out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(stats_out.str().find("|E|=100"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliGenerateTest, TruncatedBinaryFileRejected) {
  // A .bin whose header promises more edges than its body holds must fail
  // loading with an IOError, not silently analyze a partial graph.
  std::string path = ::testing::TempDir() + "/cli_trunc.bin";
  std::ostringstream out;
  ASSERT_TRUE(RunCliCommand("generate",
                            {"er", path, "--nodes=2000", "--edges=30000",
                             "--format=bin"},
                            out)
                  .ok());
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 5000 * 8);

  std::ostringstream run_out;
  Status status = RunCliCommand("undirected", {path, "--eps=0.5"}, run_out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

TEST(CliGenerateTest, RejectsUnknownDatasetAndFormat) {
  std::ostringstream out;
  EXPECT_FALSE(RunCliCommand("generate", {"nope", "/tmp/x.txt"}, out).ok());
  EXPECT_FALSE(
      RunCliCommand("generate", {"er", "/tmp/x.txt", "--format=xml"}, out)
          .ok());
}

TEST(CliGenerateTest, FlagTypoRejectedBeforeAnyWork) {
  // The typo must fail the command before the dataset is written.
  const std::string path = ::testing::TempDir() + "/cli_typo.txt";
  std::remove(path.c_str());
  std::ostringstream out;
  Status status = RunCliCommand(
      "generate", {"er", path, "--nodes=200", "--edges=1000", "--sed=3"}, out);
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CliGenerateTest, ImpossibleOrNegativeSizesRejected) {
  // G(3, 10) has only 3 node pairs; the generator would draw forever.
  const std::string path = ::testing::TempDir() + "/cli_impossible.txt";
  std::ostringstream out;
  for (std::vector<std::string> flags :
       {std::vector<std::string>{"--nodes=3", "--edges=10"},
        {"--nodes=-1", "--edges=0"},
        {"--nodes=10", "--edges=-5"}}) {
    flags.insert(flags.begin(), {"er", path});
    EXPECT_EQ(RunCliCommand("generate", flags, out).code(),
              Status::Code::kInvalidArgument)
        << flags[2] << " " << flags[3];
  }
  EXPECT_FALSE(std::filesystem::exists(path));
  // Exactly n(n-1)/2 edges is the complete graph, which is fine.
  ASSERT_TRUE(RunCliCommand("generate",
                            {"er", path, "--nodes=3", "--edges=3"}, out)
                  .ok());
  std::remove(path.c_str());
}

TEST(CliUsageTest, MentionsAllCommands) {
  std::string usage = CliUsage();
  for (const char* cmd :
       {"stats", "undirected", "directed", "exact", "enumerate", "generate"}) {
    EXPECT_NE(usage.find(cmd), std::string::npos) << cmd;
  }
}

}  // namespace
}  // namespace densest
