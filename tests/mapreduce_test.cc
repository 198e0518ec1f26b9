// Tests for the MapReduce engine, the §5.2 graph jobs, and the MR drivers'
// equivalence with the streaming algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "gen/erdos_renyi.h"
#include "gen/planted.h"
#include "graph/graph_builder.h"
#include "mapreduce/cost_model.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "mapreduce/mr_densest.h"
#include "mapreduce/stream_source.h"
#include "common/thread_pool.h"
#include "stream/memory_stream.h"

namespace densest {
namespace {

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.ParallelFor(1000, [&](size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ZeroAndOneCounts) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, OneWorkerRunsParallelForOnTheCallerInIndexOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  std::vector<std::thread::id> ran_on;
  pool.ParallelFor(100, [&](size_t i) {
    order.push_back(i);
    ran_on.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], caller) << "i=" << i;
  }
  // Submit still hands its task to the worker: the file stream's prefetch
  // relies on it running beside the caller.
  std::thread::id submitted_on;
  pool.Submit([&] { submitted_on = std::this_thread::get_id(); }).get();
  EXPECT_NE(submitted_on, caller);
}

TEST(CostModelTest, OverheadDominatesTinyJobs) {
  CostModel model;
  JobStats stats;  // zero records
  EXPECT_DOUBLE_EQ(SimulateJobSeconds(model, stats),
                   model.job_overhead_seconds);
}

TEST(CostModelTest, TimeGrowsWithRecords) {
  CostModel model;
  JobStats small, large;
  small.map_input_records = 1000;
  large.map_input_records = 1000000000;
  EXPECT_LT(SimulateJobSeconds(model, small),
            SimulateJobSeconds(model, large));
}

TEST(CostModelTest, AccumulateSums) {
  JobStats a, b;
  a.map_input_records = 5;
  a.simulated_seconds = 1.5;
  b.map_input_records = 7;
  b.simulated_seconds = 2.5;
  a.Accumulate(b);
  EXPECT_EQ(a.map_input_records, 12u);
  EXPECT_DOUBLE_EQ(a.simulated_seconds, 4.0);
  EXPECT_NE(a.ToString().find("map_in=12"), std::string::npos);
}

TEST(RunJobTest, WordCountStyleAggregation) {
  MapReduceEnv env;
  std::vector<KV<uint32_t, uint32_t>> input;
  // 10 records of key i%3.
  for (uint32_t i = 0; i < 10; ++i) input.push_back({i, i % 3});

  JobStats stats;
  VectorRecordSource<uint32_t, uint32_t> source(input);
  auto out = RunJobOnSource<uint32_t, uint32_t, uint32_t, uint64_t>(
      env, source, JobOptions{},
      [](const uint32_t&, const uint32_t& group,
         Emitter<uint32_t, uint32_t>& emit) { emit.Emit(group, 1); },
      NoCombiner,
      [](const uint32_t& key, const std::vector<uint32_t>& ones,
         Emitter<uint32_t, uint64_t>& emit) {
        emit.Emit(key, ones.size());
      },
      &stats);
  ASSERT_TRUE(out.ok());

  std::vector<KV<uint32_t, uint64_t>>& counts = *out;
  std::sort(counts.begin(), counts.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0].value, 4u);  // keys 0,3,6,9
  EXPECT_EQ(counts[1].value, 3u);
  EXPECT_EQ(counts[2].value, 3u);
  EXPECT_EQ(stats.map_input_records, 10u);
  EXPECT_EQ(stats.map_output_records, 10u);
  EXPECT_EQ(stats.reduce_input_groups, 3u);
  EXPECT_GT(stats.simulated_seconds, 0.0);
}

TEST(RunJobTest, DeterministicAcrossThreadCounts) {
  std::vector<KV<uint32_t, uint32_t>> input;
  for (uint32_t i = 0; i < 5000; ++i) input.push_back({i % 97, i});

  auto run = [&](size_t threads) {
    MapReduceEnv env({}, threads);
    VectorRecordSource<uint32_t, uint32_t> source(input);
    auto out = RunJobOnSource<uint32_t, uint32_t, uint32_t, uint64_t>(
        env, source, JobOptions{},
        [](const uint32_t& k, const uint32_t& v,
           Emitter<uint32_t, uint32_t>& emit) { emit.Emit(k, v); },
        NoCombiner,
        [](const uint32_t& key, const std::vector<uint32_t>& vs,
           Emitter<uint32_t, uint64_t>& emit) {
          uint64_t sum = 0;
          for (uint32_t v : vs) sum += v;
          emit.Emit(key, sum);
        });
    EXPECT_TRUE(out.ok());
    std::sort(out->begin(), out->end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return std::move(*out);
  };

  auto a = run(1), b = run(8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(GraphJobsTest, DegreeJobMatchesCsrDegrees) {
  EdgeList el = ErdosRenyiGnm(200, 800, 81);
  GraphBuilder b;
  b.ReserveNodes(el.num_nodes());
  for (const Edge& e : el.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();

  MapReduceEnv env;
  const EdgeList edges = g.ToEdgeList();
  EdgeListStream stream(edges);
  StreamRecordSource source(stream);
  auto degrees = MrDegreeJob(env, source, JobOptions{});
  ASSERT_TRUE(degrees.ok());
  std::vector<EdgeId> deg(g.num_nodes(), 0);
  for (const auto& kv : *degrees) deg[kv.key] = kv.value;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(deg[u], g.Degree(u)) << "u=" << u;
  }
}

TEST(GraphJobsTest, CombinedDegreeJobMatchesPlainDegreeJob) {
  EdgeList el = ErdosRenyiGnm(300, 2000, 82);
  MapReduceEnv env;
  EdgeListStream stream(el);
  StreamRecordSource source(stream);

  JobStats plain_stats, combined_stats;
  auto plain = MrDegreeJob(env, source, JobOptions{}, &plain_stats);
  auto combined =
      MrDegreeJobCombined(env, source, JobOptions{}, &combined_stats);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(combined.ok());

  auto by_key = [](const KV<NodeId, EdgeId>& a, const KV<NodeId, EdgeId>& b) {
    return a.key < b.key;
  };
  std::sort(plain->begin(), plain->end(), by_key);
  std::sort(combined->begin(), combined->end(), by_key);
  ASSERT_EQ(plain->size(), combined->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].key, (*combined)[i].key);
    EXPECT_EQ((*plain)[i].value, (*combined)[i].value);
  }

  // The combiner is what crosses the shuffle: fewer records, fewer bytes.
  EXPECT_EQ(combined_stats.map_output_records, 2 * el.num_edges());
  EXPECT_LT(combined_stats.combine_output_records,
            combined_stats.map_output_records);
  EXPECT_LT(combined_stats.shuffle_bytes, plain_stats.shuffle_bytes);
}

TEST(GraphJobsTest, CombinerInvarianceAcrossThreadCounts) {
  // Chunking changes which records each combiner sees; the final counts
  // must not.
  EdgeList el = ErdosRenyiGnm(200, 1500, 84);
  auto run = [&](size_t threads) {
    MapReduceEnv env({}, threads);
    EdgeListStream stream(el);
    StreamRecordSource source(stream);
    auto out = MrDegreeJobCombined(env, source, JobOptions{});
    EXPECT_TRUE(out.ok());
    std::sort(out->begin(), out->end(),
              [](const auto& a, const auto& b) { return a.key < b.key; });
    return std::move(*out);
  };
  auto a = run(1), b = run(8);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key);
    EXPECT_EQ(a[i].value, b[i].value);
  }
}

TEST(GraphJobsTest, DirectedDegreeJobMatchesCsr) {
  EdgeList el = ErdosRenyiDirectedGnm(150, 900, 83);
  DirectedGraph g = DirectedGraph::FromEdgeList(el);
  MapReduceEnv env;
  EdgeListStream stream(el);
  StreamRecordSource source(stream);
  auto degrees = MrDirectedDegreeJob(env, source, JobOptions{});
  ASSERT_TRUE(degrees.ok());
  std::vector<EdgeId> out_deg(g.num_nodes(), 0), in_deg(g.num_nodes(), 0);
  for (const auto& kv : *degrees) {
    NodeId node = static_cast<NodeId>(kv.key >> 1);
    (kv.key & 1 ? in_deg : out_deg)[node] = kv.value;
  }
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(out_deg[u], g.OutDegree(u));
    EXPECT_EQ(in_deg[u], g.InDegree(u));
  }
}

TEST(GraphJobsTest, RemoveNodesDropsExactlyIncidentEdges) {
  // Triangle 0-1-2 plus edge 2-3; removing node 2 leaves only 0-1.
  EdgeList el(4);
  el.Add(0, 1);
  el.Add(1, 2);
  el.Add(0, 2);
  el.Add(2, 3);
  MapReduceEnv env;
  NodeSet marked(4);
  marked.Insert(2);
  EdgeListStream stream(el);
  StreamRecordSource source(stream);
  auto out = MrRemoveNodesJob(env, source, marked, JobOptions{});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  NodeId a = std::min((*out)[0].key, (*out)[0].value);
  NodeId bb = std::max((*out)[0].key, (*out)[0].value);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(bb, 1u);
}

TEST(GraphJobsTest, RemoveNodesHandlesBothEndpointOrientations) {
  // Node marked on the *second* endpoint position must also be caught.
  EdgeList el(3);
  el.Add(0, 2);  // 2 in second position
  el.Add(2, 1);  // 2 in first position
  MapReduceEnv env;
  NodeSet marked(3);
  marked.Insert(2);
  EdgeListStream stream(el);
  StreamRecordSource source(stream);
  auto out = MrRemoveNodesJob(env, source, marked, JobOptions{});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(GraphJobsTest, RemoveArcsBySourceAndTarget) {
  EdgeList el(4);
  el.Add(0, 1);
  el.Add(1, 2);
  el.Add(2, 3);
  MapReduceEnv env;
  NodeSet marked(4);
  marked.Insert(1);
  EdgeListStream stream(el);
  StreamRecordSource source(stream);

  auto by_src =
      MrRemoveArcsJob(env, source, marked, /*by_source=*/true, JobOptions{});
  ASSERT_TRUE(by_src.ok());
  // Only arc 1->2 has source 1.
  ASSERT_EQ(by_src->size(), 2u);

  auto by_dst =
      MrRemoveArcsJob(env, source, marked, /*by_source=*/false, JobOptions{});
  ASSERT_TRUE(by_dst.ok());
  // Only arc 0->1 has target 1.
  ASSERT_EQ(by_dst->size(), 2u);
  for (const auto& kv : *by_dst) EXPECT_NE(kv.value, 1u);
}

// ---- Driver equivalence with the streaming algorithms. ----

class MrUndirectedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MrUndirectedEquivalenceTest, MatchesStreamingAlgorithm1) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  GraphBuilder b;
  EdgeList raw = ErdosRenyiGnm(120, 700, seed);
  b.ReserveNodes(raw.num_nodes());
  for (const Edge& e : raw.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  EdgeList el = g.ToEdgeList();
  el.set_num_nodes(g.num_nodes());

  Algorithm1Options stream_opt;
  stream_opt.epsilon = 0.5;
  auto streaming = RunAlgorithm1(g, stream_opt);
  ASSERT_TRUE(streaming.ok());

  MapReduceEnv env;
  MrDensestOptions mr_opt;
  mr_opt.epsilon = 0.5;
  EdgeListStream stream(el);
  auto mr = RunMrDensestUndirected(env, stream, mr_opt);
  ASSERT_TRUE(mr.ok());

  EXPECT_EQ(mr->result.nodes, streaming->nodes) << "seed=" << seed;
  EXPECT_DOUBLE_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
  ASSERT_EQ(streaming->trace.size(), streaming->passes);
  EXPECT_EQ(mr->result.trace, streaming->trace);  // every snapshot field
  EXPECT_EQ(mr->result.certified_band, streaming->certified_band);
  // One pass_stats entry per trace snapshot: the CLI's --trace table
  // indexes one by the other.
  EXPECT_EQ(mr->pass_stats.size(), mr->result.trace.size());
  EXPECT_EQ(mr->pass_stats.size(), mr->result.passes);
  for (const JobStats& s : mr->pass_stats) EXPECT_GT(s.simulated_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(MrSweep, MrUndirectedEquivalenceTest,
                         ::testing::Range(700, 708));

class MrDirectedEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(MrDirectedEquivalenceTest, MatchesStreamingAlgorithm3) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  EdgeList el = ErdosRenyiDirectedGnm(100, 800, seed);
  el.set_num_nodes(100);
  DirectedGraph g = DirectedGraph::FromEdgeList(el);

  Algorithm3Options stream_opt;
  stream_opt.c = 2.0;
  stream_opt.epsilon = 1.0;
  auto streaming = RunAlgorithm3(g, stream_opt);
  ASSERT_TRUE(streaming.ok());

  MapReduceEnv env;
  MrDirectedOptions mr_opt;
  mr_opt.c = 2.0;
  mr_opt.epsilon = 1.0;
  EdgeListStream stream(el);
  auto mr = RunMrDensestDirected(env, stream, mr_opt);
  ASSERT_TRUE(mr.ok());

  EXPECT_EQ(mr->result.s_nodes, streaming->s_nodes) << "seed=" << seed;
  EXPECT_EQ(mr->result.t_nodes, streaming->t_nodes);
  EXPECT_DOUBLE_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
  ASSERT_EQ(streaming->trace.size(), streaming->passes);
  EXPECT_EQ(mr->result.trace, streaming->trace);  // every snapshot field
  EXPECT_EQ(mr->result.certified_band, streaming->certified_band);
  EXPECT_EQ(mr->pass_stats.size(), mr->result.trace.size());
}

INSTANTIATE_TEST_SUITE_P(MrDirectedSweep, MrDirectedEquivalenceTest,
                         ::testing::Range(800, 806));

/// A multigraph with self-loops: G(n, m) plus a loop on every fifth node,
/// two loops on node 0 and a repeat of the first ten edges.
EdgeList WithSelfLoopsAndRepeats(EdgeList el) {
  const NodeId n = el.num_nodes();
  for (NodeId u = 0; u < n; u += 5) el.Add(u, u);
  el.Add(0, 0);
  for (size_t i = 0; i < 10; ++i) {
    el.Add(el.edges()[i].u, el.edges()[i].v);
  }
  return el;
}

TEST(MrDriverTest, DerivedEdgeCountMatchesStreamingWithSelfLoops) {
  // The drivers derive |E(S)| from the degree job (a self-loop adds 2 to
  // its node's degree, and 1 to its node's out- and in-degree). Streaming
  // counts each loop once, so every pass's edge count, density and
  // threshold must still agree bit for bit.
  for (uint64_t seed : {901u, 902u, 903u}) {
    const EdgeList el = WithSelfLoopsAndRepeats(ErdosRenyiGnm(90, 600, seed));
    Algorithm1Options stream_opt;
    stream_opt.epsilon = 0.5;
    EdgeListStream stream(el);
    auto streaming = RunAlgorithm1(stream, stream_opt);
    ASSERT_TRUE(streaming.ok());

    MapReduceEnv env({}, 2);
    MrDensestOptions mr_opt;
    mr_opt.epsilon = 0.5;
    mr_opt.spill_budget_bytes = 1024;
    auto mr = RunMrDensestUndirected(env, stream, mr_opt);
    ASSERT_TRUE(mr.ok()) << mr.status().ToString();
    ASSERT_GT(streaming->passes, 1u) << "seed=" << seed;
    EXPECT_EQ(mr->result.trace, streaming->trace) << "seed=" << seed;
    EXPECT_EQ(mr->result.density, streaming->density);
    EXPECT_EQ(mr->result.nodes, streaming->nodes);
    EXPECT_EQ(mr->result.trace.front().edges, el.num_edges());
  }
  for (uint64_t seed : {911u, 912u, 913u}) {
    const EdgeList arcs =
        WithSelfLoopsAndRepeats(ErdosRenyiDirectedGnm(80, 700, seed));
    Algorithm3Options stream_opt;
    stream_opt.c = 2.0;
    stream_opt.epsilon = 0.5;
    EdgeListStream stream(arcs);
    auto streaming = RunAlgorithm3(stream, stream_opt);
    ASSERT_TRUE(streaming.ok());

    MapReduceEnv env({}, 2);
    MrDirectedOptions mr_opt;
    mr_opt.c = 2.0;
    mr_opt.epsilon = 0.5;
    mr_opt.spill_budget_bytes = 1024;
    auto mr = RunMrDensestDirected(env, stream, mr_opt);
    ASSERT_TRUE(mr.ok()) << mr.status().ToString();
    ASSERT_GT(streaming->passes, 1u) << "seed=" << seed;
    EXPECT_EQ(mr->result.trace, streaming->trace) << "seed=" << seed;
    EXPECT_EQ(mr->result.density, streaming->density);
    EXPECT_EQ(mr->result.s_nodes, streaming->s_nodes);
    EXPECT_EQ(mr->result.t_nodes, streaming->t_nodes);
    EXPECT_EQ(mr->result.trace.front().weight,
              static_cast<double>(arcs.num_edges()));
  }
}

TEST(MrDriverTest, InvalidArguments) {
  MapReduceEnv env;
  EdgeList el(3);
  el.Add(0, 1);
  EdgeListStream stream(el);
  MrDensestOptions bad;
  bad.epsilon = -1;
  EXPECT_FALSE(RunMrDensestUndirected(env, stream, bad).ok());
  const EdgeList no_nodes(0);
  EdgeListStream empty(no_nodes);
  EXPECT_FALSE(RunMrDensestUndirected(env, empty, {}).ok());
  MrDirectedOptions bad_dir;
  bad_dir.c = 0;
  EXPECT_FALSE(RunMrDensestDirected(env, stream, bad_dir).ok());
}

/// 495 disjoint edges (arcs u -> u+1) plus a K10 on nodes 990..999, as
/// undirected edges or, `directed`, with the K10 as a complete digraph.
EdgeList MatchingPlusK10(bool directed) {
  EdgeList el(1000);
  for (NodeId u = 0; u < 990; u += 2) el.Add(u, u + 1);
  for (NodeId i = 990; i < 1000; ++i) {
    for (NodeId j = directed ? 990 : i + 1; j < 1000; ++j) {
      if (i != j) el.Add(i, j);
    }
  }
  return el;
}

TEST(MrDriverTest, CappedRunsAreUncertified) {
  // One eps = 0 pass peels only the matching; a run the cap stopped there
  // has not earned Lemma 1's (or Theorem 6's) band.
  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 0.0;
  opt.max_passes = 1;
  const EdgeList el = MatchingPlusK10(false);
  EdgeListStream stream(el);
  auto mr = RunMrDensestUndirected(env, stream, opt);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mr->result.passes, 1u);
  EXPECT_DOUBLE_EQ(mr->result.density, 0.54);
  EXPECT_EQ(mr->result.certified_band, 0.0);
  EXPECT_FALSE(mr->result.ToAnswer().certified);

  MrDirectedOptions dir_opt;
  dir_opt.epsilon = 0.0;
  dir_opt.max_passes = 1;
  const EdgeList arcs = MatchingPlusK10(true);
  EdgeListStream arc_stream(arcs);
  auto dir = RunMrDensestDirected(env, arc_stream, dir_opt);
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->result.passes, 1u);
  EXPECT_DOUBLE_EQ(dir->result.density, 0.585);
  EXPECT_EQ(dir->result.certified_band, 0.0);
  EXPECT_FALSE(dir->result.ToAnswer().certified);
}

TEST(MrDriverTest, ZeroMaxPassesMeansUncapped) {
  // As in Algorithm{1,3}Options: 0 lifts the cap, it does not run zero
  // passes.
  const EdgeList el = MatchingPlusK10(false);
  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 0.0;
  opt.max_passes = 0;
  EdgeListStream stream(el);
  auto mr = RunMrDensestUndirected(env, stream, opt);
  ASSERT_TRUE(mr.ok());
  EXPECT_EQ(mr->result.passes, 2u);
  EXPECT_DOUBLE_EQ(mr->result.density, 4.5);
  EXPECT_EQ(mr->result.nodes.size(), 10u);
  EXPECT_DOUBLE_EQ(mr->result.ToAnswer().upper_bound, 9.0);

  const EdgeList arcs = MatchingPlusK10(true);
  MrDirectedOptions dir_opt;
  dir_opt.epsilon = 0.0;
  dir_opt.max_passes = 0;
  EdgeListStream arc_stream(arcs);
  auto dir = RunMrDensestDirected(env, arc_stream, dir_opt);
  ASSERT_TRUE(dir.ok());
  auto streaming = RunAlgorithm3(
      DirectedGraph::FromEdgeList(arcs),
      Algorithm3Options{.c = 1.0, .epsilon = 0.0, .max_passes = 0});
  ASSERT_TRUE(streaming.ok());
  EXPECT_GT(dir->result.passes, 0u);
  EXPECT_EQ(dir->result.passes, streaming->passes);
  EXPECT_DOUBLE_EQ(dir->result.density, 9.0);
  EXPECT_TRUE(dir->result.ToAnswer().certified);
}

TEST(MrDriverTest, TotalsCoverOneRun) {
  // A run's pass_stats cover its own jobs, not every job the env ever ran:
  // a second run on the same env sums to the same totals.
  const EdgeList el = ErdosRenyiGnm(200, 1900, 17);
  EdgeListStream stream(el);
  MapReduceEnv env;
  MrDensestOptions opt;
  auto first = RunMrDensestUndirected(env, stream, opt);
  auto second = RunMrDensestUndirected(env, stream, opt);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  const JobStats first_total = SumJobStats(first->pass_stats);
  const JobStats second_total = SumJobStats(second->pass_stats);
  EXPECT_GT(first_total.map_input_records, 0u);
  EXPECT_EQ(second_total.map_input_records, first_total.map_input_records);
  EXPECT_EQ(second_total.shuffle_bytes, first_total.shuffle_bytes);
  EXPECT_EQ(second->pass_stats.size(), first->pass_stats.size());

  auto dir_first = RunMrDensestDirected(env, stream, {});
  auto dir_second = RunMrDensestDirected(env, stream, {});
  ASSERT_TRUE(dir_first.ok());
  ASSERT_TRUE(dir_second.ok());
  EXPECT_EQ(SumJobStats(dir_second->pass_stats).map_input_records,
            SumJobStats(dir_first->pass_stats).map_input_records);
}

TEST(MrDriverTest, SimulatedTimeDecaysAcrossPasses) {
  // The graph shrinks every pass, so simulated per-pass time is
  // non-increasing (up to the constant overhead floor) and the first pass
  // is the most expensive.
  PlantedGraph pg = PlantDenseBlocks(3000, 20000, {{40, 0.9}}, 91);
  GraphBuilder b;
  b.ReserveNodes(pg.edges.num_nodes());
  for (const Edge& e : pg.edges.edges()) b.Add(e.u, e.v);
  UndirectedGraph g = std::move(b.BuildUndirected()).value();
  EdgeList el = g.ToEdgeList();
  el.set_num_nodes(g.num_nodes());

  CostModel model;
  model.map_seconds_per_record = 1e-3;  // exaggerate data-dependent cost
  model.reduce_seconds_per_record = 1e-3;
  MapReduceEnv env(model);
  MrDensestOptions opt;
  opt.epsilon = 0.5;
  EdgeListStream stream(el);
  auto mr = RunMrDensestUndirected(env, stream, opt);
  ASSERT_TRUE(mr.ok());
  ASSERT_GE(mr->pass_stats.size(), 2u);
  const double first = mr->pass_stats.front().simulated_seconds;
  for (const JobStats& s : mr->pass_stats) {
    EXPECT_LE(s.simulated_seconds, first * 1.05);
  }
}

}  // namespace
}  // namespace densest
