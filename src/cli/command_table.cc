// The densest_cli command table: every command's positionals, synopsis
// and flags, declared once. Args::Parse checks command lines against it
// before a command runs, and CliUsage / CommandUsage render from it, so a
// flag's name, type, default, minimum and help line live only here.

#include "cli/commands.h"

namespace densest {

namespace {

// Flags shared by several commands with the same meaning.
constexpr FlagSpec Eps(std::string_view def) {
  return DoubleFlag("eps", def, "approximation parameter epsilon");
}
constexpr FlagSpec kTrace = BoolFlag("trace", "print the per-pass trace");
constexpr FlagSpec kWindow = IntFlag(
    "window", "0", "sliding window of live edges (0 = insert-only)", 0);
constexpr FlagSpec kRate =
    DoubleFlag("rate", "0", "target updates per second (0 = unthrottled)");
constexpr FlagSpec kEvictBatch = IntFlag(
    "evict-batch", "1", "sliding-window deletions applied per eviction", 1);
constexpr FlagSpec kStatsEvery = IntFlag(
    "stats-every", "0", "print a metrics summary line every N updates", 0);

}  // namespace

const std::vector<CommandSpec>& CliCommands() {
  static const std::vector<CommandSpec> kCommands = {
      {"stats", "<graph>", "print graph parameters",
       {BoolFlag("directed", "read the graph as directed")},
       CmdStats},
      {"undirected", "<graph>",
       "Algorithm 1 (Algorithm 2 with --min-size, Count-Sketch with "
       "--sketch-buckets)",
       {Eps("0.5"),
        IntFlag("min-size", "0", "lower bound on |S|: runs Algorithm 2", 0),
        IntFlag("sketch-buckets", "0",
                "Count-Sketch buckets per table (0 = exact degrees)", 0),
        IntFlag("sketch-tables", "5", "Count-Sketch tables", 1),
        IntFlag("compact-below", "0",
                "buffer surviving edges in memory below this count", 0),
        kTrace,
        StringFlag("output", "", "write the subgraph's node ids here")},
       CmdUndirected},
      {"directed", "<graph>",
       "Algorithm 3 for one ratio --c, or a c-search over powers of --delta",
       {Eps("0.5"),
        DoubleFlag("c", "0", "ratio |S|/|T| to run at (0 = c-search)"),
        DoubleFlag("delta", "2", "c-search step: ratios are powers of delta"),
        kTrace},
       CmdDirected},
      {"mapreduce", "<graph>",
       "simulated-cluster MapReduce drivers; .bin graphs stream from disk",
       {Eps("1"),
        BoolFlag("directed", "run Algorithm 3 on the directed graph"),
        DoubleFlag("c", "1", "ratio |S|/|T| (with --directed)"),
        IntFlag("spill-budget", "0",
                "shuffle bytes buffered before a spill; not a memory cap", 0),
        IntFlag("mappers", "2000", "simulated mappers", 1),
        IntFlag("reducers", "2000", "simulated reducers", 1),
        kTrace},
       CmdMapReduce},
      {"dynamic", "<graph>",
       "incremental maintenance of the graph replayed as an update stream",
       {Eps("0.75"), kWindow, kRate,
        IntFlag("query-every", "1024", "query every N updates (0 = never)",
                0),
        IntFlag("checkpoint-every", "0",
                "check the band against a recompute every N updates", 0),
        EnumFlag("checkpoints", "exact|batch",
                 "checkpoint reference: exact max-flow or batch Algorithm 1"),
        IntFlag("radius", "2", "threshold slots kept above the certified "
                "range", 0),
        EnumFlag("fallback", "recompute|rebuild|never",
                 "on a degraded window: recompute, rebuild only, or serve "
                 "uncertified"),
        IntFlag("threads", "0", "recompute threads (0 = all cores)", 0),
        StringFlag("snapshot", "", "crash-recovery snapshot file"),
        IntFlag("snapshot-every", "0",
                "write the snapshot every N updates (0 = never)", 0),
        BoolFlag("resume", "restore from --snapshot (a bad one: full replay)"),
        kEvictBatch,
        IntFlag("trim-hysteresis", "64",
                "updates the trim condition must hold before slots drop", 1),
        IntFlag("retry-attempts", "4",
                "tries per transient read fault on a .bin graph", 1),
        DoubleFlag("retry-base-ms", "0.1",
                   "first retry backoff, doubled per retry", 0),
        DoubleFlag("deadline-ms", "0",
                   "budget per recompute; overruns serve a widened stale band",
                   0),
        IntFlag("rearm-updates", "4096",
                "updates until a cancelled recompute retries, budget doubled",
                1),
        BoolFlag("check-invariants",
                 "audit the level structures at every checkpoint"),
        kStatsEvery},
       CmdDynamic},
      {"serve", "<graph>",
       "multi-tenant serving: one writer, a reader pool, an answer plane",
       {Eps("0.75"), kWindow, kRate,
        IntFlag("publish-every", "1024",
                "publish the settled answer every N updates", 0),
        IntFlag("readers", "4", "reader threads", 1),
        DoubleFlag("qps", "2000", "client queries per second (0 = "
                   "unthrottled)", 0),
        StringFlag("query-mix", "80,15,5",
                   "density,membership,snapshot[,stats] query weights"),
        IntFlag("batch", "8", "queries per client batch", 1),
        IntFlag("queue-capacity", "64",
                "queued batches before the service sheds load", 1),
        DoubleFlag("deadline-ms", "0", "deadline per query batch (0 = none)",
                   0),
        IntFlag("seed", "1", "client workload seed"),
        kEvictBatch, kStatsEvery},
       CmdServe},
      {"chaos", "",
       "chaos/soak harness: random faults and kill/resume vs fault-free runs",
       {BoolFlag("smoke", "the fixed-seed gate: pinned seed, >= 20 schedules"),
        IntFlag("schedules", "20", "fault schedules to run", 1),
        IntFlag("seed", "1", "seed of schedule 0 (failures name their seed)"),
        IntFlag("nodes", "70", "workload nodes", 2),
        IntFlag("edges", "1200", "workload insertions", 1),
        IntFlag("window", "150", "sliding window of live edges", 1),
        Eps("0.6"),
        IntFlag("checkpoint-every", "300",
                "exact band check and invariant audit every N updates", 1),
        IntFlag("snapshot-every", "100", "snapshot every N updates", 1),
        IntFlag("max-faults", "6", "most faults injected per schedule", 0),
        IntFlag("batch-size", "64", "updates per applied batch", 1),
        IntFlag("readers", "2",
                "serving readers checked against the writer log", 0),
        StringFlag("scratch", "",
                   "directory for update files and snapshots (\"\" = temp)"),
        BoolFlag("verbose", "print one line per schedule"),
        IntFlag("stats-every", "0",
                "print a metrics summary line every N schedules", 0)},
       CmdChaos},
      {"exact", "<graph>", "exact rho* via Goldberg's max-flow reduction",
       {}, CmdExact},
      {"enumerate", "<graph>", "node-disjoint dense subgraphs",
       {Eps("0.5"), IntFlag("count", "10", "most subgraphs to report", 0),
        DoubleFlag("min-density", "1", "stop below this density")},
       CmdEnumerate},
      {"generate", "<dataset> <path>",
       "write a dataset: flickr-sim im-sim livejournal-sim twitter-sim er "
       "chung-lu",
       {IntFlag("seed", "1", "generator seed"),
        EnumFlag("format", "txt|bin", "output format"),
        IntFlag("nodes", "10000", "nodes (er, chung-lu)", 1),
        IntFlag("edges", "50000",
                "edges (er: at most nodes*(nodes-1)/2; chung-lu)", 0),
        DoubleFlag("exponent", "2.3", "power-law exponent (chung-lu)")},
       CmdGenerate},
  };
  return kCommands;
}

const std::vector<FlagSpec>& CliGlobalFlags() {
  static const std::vector<FlagSpec> kGlobals = {
      StringFlag("failpoint", "",
                 "arm faults: \"name:spec[;name:spec]\" (common/failpoint.h)"),
      StringFlag("metrics-out", "",
                 "write the final metrics (Prometheus text; JSON for .json)"),
      StringFlag("trace-out", "",
                 "write the command's trace spans as chrome://tracing JSON"),
  };
  return kGlobals;
}

std::string CliUsage() {
  std::string out =
      "densest_cli — densest subgraph in streaming and MapReduce (VLDB'12)\n"
      "\n"
      "usage: densest_cli <command> [args] [--flags]\n"
      "\n"
      "commands:\n";
  for (const CommandSpec& c : CliCommands()) out += FormatCommandUsage(c);
  return out +
         "\n"
         "graphs: text edge lists (\"u v [w]\" lines, # comments) or .bin "
         "files\n"
         "        written by `generate --format=bin`.\n"
         "\n"
         "global flags (every command):\n" +
         FormatFlags(CliGlobalFlags(), "  ");
}

std::string CommandUsage(std::string_view command) {
  for (const CommandSpec& c : CliCommands()) {
    if (c.name == command) {
      return "usage:\n" + FormatCommandUsage(c) + "\nglobal flags:\n" +
             FormatFlags(CliGlobalFlags(), "  ");
    }
  }
  return CliUsage();
}

}  // namespace densest
