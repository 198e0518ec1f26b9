// Tests for the out-of-core MapReduce substrate: stream-backed job inputs
// (StreamRecordSource over every stream type), the shuffle's sort and merge
// kernels and its spill path (against a comparison-sort reference model),
// and the drivers' bit-for-bit equivalence with the streaming algorithms on
// file- and generator-backed inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/algorithm1.h"
#include "core/algorithm3.h"
#include "gen/erdos_renyi.h"
#include "mapreduce/graph_jobs.h"
#include "mapreduce/job.h"
#include "mapreduce/mr_densest.h"
#include "mapreduce/stream_source.h"
#include "stream/file_stream.h"
#include "stream/generated_stream.h"
#include "stream/memory_stream.h"

namespace densest {
namespace {

// ---- RecordSource plumbing. ----

TEST(StreamRecordSourceTest, DeliversEveryEdgeAndCountsScans) {
  EdgeList el = ErdosRenyiGnm(200, 1000, 11);
  EdgeListStream stream(el);
  StreamRecordSource source(stream);

  for (int scan = 1; scan <= 2; ++scan) {
    source.Reset();
    std::vector<KV<NodeId, NodeId>> got;
    KV<NodeId, NodeId> buf[64];
    size_t n;
    while ((n = source.FillChunk(buf, 64)) > 0) {
      got.insert(got.end(), buf, buf + n);
    }
    ASSERT_EQ(got.size(), el.num_edges());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, el.edges()[i].u);
      EXPECT_EQ(got[i].value, el.edges()[i].v);
    }
    EXPECT_EQ(source.scans(), static_cast<uint64_t>(scan));
  }
}

TEST(ChainRecordSourceTest, ConcatenatesInOrderAndResets) {
  std::vector<KV<NodeId, NodeId>> a = {{1, 2}, {3, 4}};
  std::vector<KV<NodeId, NodeId>> b = {{5, 6}};
  VectorRecordSource<NodeId, NodeId> sa(a), sb(b);
  ChainRecordSource<NodeId, NodeId> chain(sa, sb);
  for (int round = 0; round < 2; ++round) {
    chain.Reset();
    std::vector<KV<NodeId, NodeId>> got;
    KV<NodeId, NodeId> buf[8];
    size_t n;
    while ((n = chain.FillChunk(buf, 8)) > 0) got.insert(got.end(), buf, buf + n);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].key, 1u);
    EXPECT_EQ(got[2].key, 5u);
  }
  EXPECT_EQ(chain.SizeHint(), 3u);
}

// ---- Spill path: identical results with and without spilling. ----

std::vector<KV<NodeId, EdgeId>> RunDegreeJob(const EdgeList& el,
                                             uint64_t budget,
                                             JobStats* stats) {
  MapReduceEnv env({}, 4);
  EdgeListStream stream(el);
  StreamRecordSource source(stream);
  JobOptions opts;
  opts.spill_budget_bytes = budget;
  auto out = MrDegreeJobCombined(env, source, opts, stats);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return std::move(*out);
}

TEST(SpillShuffleTest, EveryPartitionSpillsAndOutputIsByteIdentical) {
  EdgeList el = ErdosRenyiGnm(400, 5000, 21);

  JobStats in_memory_stats, spilled_stats;
  auto in_memory = RunDegreeJob(el, 0, &in_memory_stats);
  // A 1-byte budget gives every partition a share below one record: every
  // append spills, so the whole shuffle goes through disk.
  auto spilled = RunDegreeJob(el, 1, &spilled_stats);

  EXPECT_EQ(in_memory_stats.spill_bytes_written, 0u);
  EXPECT_GT(spilled_stats.spill_bytes_written, 0u);
  EXPECT_EQ(spilled_stats.spill_bytes_read,
            spilled_stats.spill_bytes_written);
  EXPECT_GT(spilled_stats.spill_runs, 0u);
  // Identical chunking on both sides: the output must match record for
  // record, in order — the merge-read reproduces the stable sort exactly.
  ASSERT_EQ(spilled.size(), in_memory.size());
  for (size_t i = 0; i < spilled.size(); ++i) {
    EXPECT_EQ(spilled[i].key, in_memory[i].key) << "i=" << i;
    EXPECT_EQ(spilled[i].value, in_memory[i].value) << "i=" << i;
  }
  // The spilled run costs more simulated time (spill IO is charged).
  EXPECT_GT(spilled_stats.simulated_seconds,
            in_memory_stats.simulated_seconds);
}

TEST(SpillShuffleTest, OutputOrderInvariantAcrossThreadCountsAndBudgets) {
  // Partition count and chunk boundaries are fixed constants, never
  // derived from the thread count — so the output matches record for
  // record, in order, with no sorting, for every (threads, budget) pair.
  EdgeList el = ErdosRenyiGnm(300, 4000, 22);
  auto reference = RunDegreeJob(el, 0, nullptr);
  for (size_t threads : {1u, 3u, 8u}) {
    for (uint64_t budget : {uint64_t{1}, uint64_t{1} << 12, uint64_t{0}}) {
      MapReduceEnv env({}, threads);
      EdgeListStream stream(el);
      StreamRecordSource source(stream);
      JobOptions opts;
      opts.spill_budget_bytes = budget;
      auto out = MrDegreeJobCombined(env, source, opts, nullptr);
      ASSERT_TRUE(out.ok());
      ASSERT_EQ(out->size(), reference.size());
      for (size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ((*out)[i].key, reference[i].key)
            << "threads=" << threads << " budget=" << budget << " i=" << i;
        EXPECT_EQ((*out)[i].value, reference[i].value);
      }
    }
  }
}

// ---- Driver equivalence with streaming, on every stream type. ----

void ExpectMrMatchesStreaming(EdgeStream& stream, double epsilon,
                              uint64_t spill_budget) {
  Algorithm1Options stream_opt;
  stream_opt.epsilon = epsilon;
  auto streaming = RunAlgorithm1(stream, stream_opt);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();

  MapReduceEnv env;
  MrDensestOptions mr_opt;
  mr_opt.epsilon = epsilon;
  mr_opt.spill_budget_bytes = spill_budget;
  auto mr = RunMrDensestUndirected(env, stream, mr_opt);
  ASSERT_TRUE(mr.ok()) << mr.status().ToString();

  EXPECT_EQ(mr->result.nodes, streaming->nodes);
  EXPECT_DOUBLE_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
  ASSERT_EQ(streaming->trace.size(), streaming->passes);
  EXPECT_EQ(mr->result.trace, streaming->trace);  // every snapshot field
  EXPECT_GT(mr->input_scans, 0u);
}

TEST(MrStreamEquivalenceTest, EdgeListStream) {
  EdgeList el = ErdosRenyiGnm(150, 900, 31);
  EdgeListStream stream(el);
  ExpectMrMatchesStreaming(stream, 0.5, 0);
}

TEST(MrStreamEquivalenceTest, BinaryFileStream) {
  const std::string path = ::testing::TempDir() + "/mr_equiv_edges.bin";
  EdgeList el = ErdosRenyiGnm(150, 900, 32);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  ExpectMrMatchesStreaming(**stream, 0.5, 0);
  std::remove(path.c_str());
}

TEST(MrStreamEquivalenceTest, BinaryFileStreamUnderTinySpillBudget) {
  // The acceptance configuration: a disk-backed input plus a shuffle
  // budget far below the graph's total KV footprint, so the degree jobs
  // must spill — and the answer still matches streaming bit for bit.
  const std::string path = ::testing::TempDir() + "/mr_equiv_spill.bin";
  EdgeList el = ErdosRenyiGnm(200, 3000, 33);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  ExpectMrMatchesStreaming(**stream, 1.0, /*spill_budget=*/256);

  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 1.0;
  opt.spill_budget_bytes = 256;
  auto mr = RunMrDensestUndirected(env, **stream, opt);
  ASSERT_TRUE(mr.ok());
  EXPECT_GT(SumJobStats(mr->pass_stats).spill_bytes_written, 0u);
  std::remove(path.c_str());
}

TEST(MrStreamEquivalenceTest, GnpGeneratorStream) {
  GnpEdgeStream stream(120, 0.08, 41);
  ExpectMrMatchesStreaming(stream, 0.5, 0);
}

TEST(MrStreamEquivalenceTest, CirculantGeneratorStream) {
  CirculantEdgeStream stream(128, 6);
  ExpectMrMatchesStreaming(stream, 0.0, 0);
}

TEST(MrStreamEquivalenceTest, FirstPassScanAccounting) {
  // Pass 1 runs two stream-scanning jobs (degrees, removal pass 1; the
  // edge count is derived from the degrees); after the removal job
  // materializes survivors, no job touches the stream again.
  EdgeList el = ErdosRenyiGnm(100, 600, 42);
  EdgeListStream stream(el);
  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 0.5;
  auto mr = RunMrDensestUndirected(env, stream, opt);
  ASSERT_TRUE(mr.ok());
  EXPECT_GT(mr->result.passes, 1u);
  EXPECT_EQ(mr->input_scans, 2u);
}

TEST(MrDirectedStreamEquivalenceTest, BinaryFileArcStream) {
  const std::string path = ::testing::TempDir() + "/mr_equiv_arcs.bin";
  EdgeList el = ErdosRenyiDirectedGnm(120, 900, 51);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());

  Algorithm3Options stream_opt;
  stream_opt.c = 2.0;
  stream_opt.epsilon = 1.0;
  auto streaming = RunAlgorithm3(**stream, stream_opt);
  ASSERT_TRUE(streaming.ok());

  MapReduceEnv env;
  MrDirectedOptions mr_opt;
  mr_opt.c = 2.0;
  mr_opt.epsilon = 1.0;
  mr_opt.spill_budget_bytes = 512;  // force spilling on top
  auto mr = RunMrDensestDirected(env, **stream, mr_opt);
  ASSERT_TRUE(mr.ok());

  EXPECT_EQ(mr->result.s_nodes, streaming->s_nodes);
  EXPECT_EQ(mr->result.t_nodes, streaming->t_nodes);
  EXPECT_DOUBLE_EQ(mr->result.density, streaming->density);
  EXPECT_EQ(mr->result.passes, streaming->passes);
  std::remove(path.c_str());
}

// ---- IO failure: truncated inputs abort the job, not the answer. ----

TEST(MrStreamFailureTest, TruncatedBinaryInputSurfacesIOError) {
  const std::string path = ::testing::TempDir() + "/mr_truncated.bin";
  EdgeList el = ErdosRenyiGnm(200, 2000, 61);
  ASSERT_TRUE(WriteBinaryEdgeFile(path, el, /*weighted=*/false).ok());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 700 * 8);

  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  MapReduceEnv env;
  auto mr = RunMrDensestUndirected(env, **stream, {});
  ASSERT_FALSE(mr.ok());
  EXPECT_EQ(mr.status().code(), Status::Code::kIOError);
  std::remove(path.c_str());
}

// Writes an unweighted binary edge file whose header claims `num_nodes`
// and whose records are `edges` as given, ids unchecked.
void WriteRawEdgeFile(const std::string& path, uint32_t num_nodes,
                      const std::vector<std::pair<NodeId, NodeId>>& edges) {
  BinaryEdgeFileHeader header;
  header.num_nodes = num_nodes;
  header.num_edges = edges.size();
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(&header, sizeof(header), 1, f), 1u);
  for (const auto& [u, v] : edges) {
    const NodeId record[2] = {u, v};
    ASSERT_EQ(std::fwrite(record, sizeof(record), 1, f), 1u);
  }
  std::fclose(f);
}

TEST(MrStreamFailureTest, OutOfRangeEndpointFailsClosed) {
  // The header says 10 nodes; one endpoint is 5,000,000. Both drivers must
  // refuse the input, not index their degree arrays by the id.
  const std::string path = ::testing::TempDir() + "/mr_oob.bin";
  WriteRawEdgeFile(path, 10, {{0, 1}, {5, 5000000}, {2, 3}});
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  MapReduceEnv env({}, 1);
  auto undirected = RunMrDensestUndirected(env, **stream, {});
  ASSERT_FALSE(undirected.ok());
  EXPECT_EQ(undirected.status().code(), Status::Code::kInvalidArgument);
  auto directed = RunMrDensestDirected(env, **stream, {});
  ASSERT_FALSE(directed.ok());
  EXPECT_EQ(directed.status().code(), Status::Code::kInvalidArgument);

  // The first id past the range, as a source and as a target.
  for (const auto& bad : {std::pair<NodeId, NodeId>{10, 2},
                          std::pair<NodeId, NodeId>{2, 10}}) {
    WriteRawEdgeFile(path, 10, {{0, 1}, bad});
    auto edge_stream = BinaryFileEdgeStream::Open(path);
    ASSERT_TRUE(edge_stream.ok());
    EXPECT_EQ(RunMrDensestUndirected(env, **edge_stream, {}).status().code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(RunMrDensestDirected(env, **edge_stream, {}).status().code(),
              Status::Code::kInvalidArgument);
  }
  std::remove(path.c_str());
}

// ---- Combiner ceiling: the shuffle carries O(V), not O(E). ----

TEST(MrCombinerTest, DegreeShuffleBoundedByAliveNodesPerChunk) {
  EdgeList el = ErdosRenyiGnm(500, 20000, 71);
  MapReduceEnv env;
  EdgeListStream stream(el);
  StreamRecordSource source(stream);
  JobOptions opts;
  JobStats stats;
  auto out = MrDegreeJobCombined(env, source, opts, &stats);
  ASSERT_TRUE(out.ok());

  const uint64_t chunks =
      (el.num_edges() + opts.map_chunk_records - 1) / opts.map_chunk_records;
  EXPECT_EQ(stats.map_output_records, 2 * el.num_edges());
  EXPECT_EQ(stats.combine_input_records, stats.map_output_records);
  EXPECT_LE(stats.combine_output_records, chunks * el.num_nodes());
  EXPECT_LT(stats.combine_output_records, stats.map_output_records);
  // Partial counts cross the shuffle as 32-bit values: 8-byte records.
  EXPECT_EQ(stats.shuffle_bytes, 8 * stats.combine_output_records);
}

TEST(MrCombinerTest, DegreeJobRefusesChunksTooLargeForPartialCounts) {
  // A chunk's partial count of one node reaches 2 * map_chunk_records,
  // which must fit the 32-bit shuffle value of the combined degree job.
  const EdgeList el = ErdosRenyiGnm(50, 200, 73);
  MapReduceEnv env({}, 1);
  JobOptions opts;
  opts.map_chunk_records =
      size_t{std::numeric_limits<PartialCount>::max() / 2} + 1;
  EdgeListStream stream(el);
  StreamRecordSource source(stream);
  JobStats degree_stats;
  EXPECT_EQ(MrDegreeJobCombined(env, source, opts, &degree_stats)
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  // Nothing ran: the refusal comes before the map phase.
  EXPECT_EQ(degree_stats.map_input_records, 0u);
}

TEST(MrCombinerTest, DirectedDegreeCombinedMatchesPlain) {
  EdgeList el = ErdosRenyiDirectedGnm(200, 3000, 72);
  MapReduceEnv env;
  EdgeListStream stream(el);
  StreamRecordSource source(stream);
  auto plain = MrDirectedDegreeJob(env, source, JobOptions{});
  JobStats stats;
  auto combined = MrDirectedDegreeJobCombined(env, source, JobOptions{}, &stats);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(combined.ok());

  auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::sort(plain->begin(), plain->end(), by_key);
  std::sort(combined->begin(), combined->end(), by_key);
  ASSERT_EQ(plain->size(), combined->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    EXPECT_EQ((*plain)[i].key, (*combined)[i].key);
    EXPECT_EQ((*plain)[i].value, (*combined)[i].value);
  }
  EXPECT_LT(stats.combine_output_records, stats.map_output_records);
}

TEST(MapInputIoChargeTest, StreamBackedJobsChargeDfsBytes) {
  EdgeList edges = ErdosRenyiGnm(200, 1200, 31);
  EdgeListStream stream(edges);
  StreamRecordSource source(stream);
  MapReduceEnv env;
  JobStats stats;
  auto degrees = MrDegreeJobCombined(env, source, JobOptions{}, &stats);
  ASSERT_TRUE(degrees.ok());
  // One full scan: exactly the modeled wire size per record, regardless of
  // the backend that served the edges.
  EXPECT_EQ(stats.map_input_bytes,
            edges.num_edges() * StreamRecordSource::kDfsRecordBytes);
  EXPECT_EQ(source.bytes_scanned(), stats.map_input_bytes);

  // A second job over the same source is charged its own scan, not the
  // cumulative total.
  JobStats stats2;
  ASSERT_TRUE(MrDegreeJob(env, source, JobOptions{}, &stats2).ok());
  EXPECT_EQ(stats2.map_input_bytes,
            edges.num_edges() * StreamRecordSource::kDfsRecordBytes);
  EXPECT_EQ(source.bytes_scanned(), 2 * stats2.map_input_bytes);
}

TEST(MapInputIoChargeTest, InMemoryJobsChargeNothing) {
  EdgeList edges = ErdosRenyiGnm(100, 500, 33);
  MrEdges records;
  for (const Edge& e : edges.edges()) records.push_back({e.u, e.v});
  VectorRecordSource<NodeId, NodeId> source(records);
  MapReduceEnv env;
  JobStats stats;
  ASSERT_TRUE(MrDegreeJobCombined(env, source, JobOptions{}, &stats).ok());
  EXPECT_EQ(stats.map_input_bytes, 0u);
}

TEST(MapInputIoChargeTest, SimulatedSecondsIncludeScanIo) {
  CostModel model;
  JobStats stats;
  stats.map_input_records = 1000;
  const double without = SimulateJobSeconds(model, stats);
  stats.map_input_bytes = 1 << 30;
  const double with = SimulateJobSeconds(model, stats);
  EXPECT_NEAR(with - without,
              model.skew_factor * static_cast<double>(stats.map_input_bytes) *
                  model.map_input_seconds_per_byte /
                  std::max(1, model.num_mappers),
              1e-12);
}

TEST(MapInputIoChargeTest, DriverTotalsCoverEveryInputScan) {
  // The undirected driver's pass-1 jobs each scan the stream; the charged
  // bytes must equal input_scans full scans of the edge file.
  EdgeList edges = ErdosRenyiGnm(150, 800, 35);
  EdgeListStream stream(edges);
  MapReduceEnv env;
  MrDensestOptions opt;
  opt.epsilon = 0.5;
  auto r = RunMrDensestUndirected(env, stream, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->input_scans, 0u);
  EXPECT_EQ(SumJobStats(r->pass_stats).map_input_bytes,
            r->input_scans * edges.num_edges() *
                StreamRecordSource::kDfsRecordBytes);
}

/// Loser-tree stress: dozens of spilled runs per partition with heavy
/// key duplication across runs — the merge order (and with it the grouped
/// value order) must be byte-identical to the never-spilling path.
TEST(SpillShuffleTest, ManyRunsWithDuplicateKeysMergeIdentically) {
  std::vector<KV<NodeId, NodeId>> records;
  Rng rng(77);
  for (int i = 0; i < 20000; ++i) {
    // 16 distinct keys over 20k records: every run holds every key.
    records.push_back(
        {static_cast<NodeId>(rng.UniformU64(16)), static_cast<NodeId>(i)});
  }
  auto run_with_budget = [&](uint64_t budget) {
    JobOptions opts;
    opts.spill_budget_bytes = budget;
    opts.num_partitions = 2;
    ShuffleWriter<NodeId, NodeId> shuffle(opts.num_partitions, opts,
                                          /*reduce_threads=*/1);
    // Many tiny appends, each followed by a spill check => many sorted
    // runs per partition.
    for (size_t i = 0; i < records.size(); i += 100) {
      std::vector<KV<NodeId, NodeId>> chunk(
          records.begin() + i,
          records.begin() + std::min(records.size(), i + 100));
      shuffle.Append(std::move(chunk));
      EXPECT_TRUE(shuffle.SpillOverBudget().ok());
    }
    std::vector<std::pair<NodeId, std::vector<NodeId>>> groups;
    std::vector<NodeId> values;
    for (size_t p = 0; p < shuffle.num_partitions(); ++p) {
      EXPECT_TRUE(shuffle
                      .ReducePartition(p, &values,
                                       [&](NodeId key,
                                           const std::vector<NodeId>& vs) {
                                         groups.emplace_back(key, vs);
                                       })
                      .ok());
    }
    return std::make_pair(shuffle.spill_runs(), groups);
  };
  auto [runs_spilled, spilled] = run_with_budget(1024);  // every append spills
  auto [runs_memory, in_memory] = run_with_budget(0);
  EXPECT_GT(runs_spilled, 50u);
  EXPECT_EQ(runs_memory, 0u);
  ASSERT_EQ(spilled.size(), in_memory.size());
  for (size_t i = 0; i < spilled.size(); ++i) {
    EXPECT_EQ(spilled[i].first, in_memory[i].first) << "group " << i;
    EXPECT_EQ(spilled[i].second, in_memory[i].second) << "group " << i;
  }
}

// ---- Shuffle kernels: the radix sort and the loser-tree merge. ----

template <typename K>
std::vector<KV<K, uint32_t>> StableSortedByKey(std::vector<KV<K, uint32_t>> v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const auto& a, const auto& b) { return a.key < b.key; });
  return v;
}

template <typename K, typename V>
void ExpectSameRecords(const std::vector<KV<K, V>>& got,
                       const std::vector<KV<K, V>>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << what << " i=" << i;
    ASSERT_EQ(got[i].value, want[i].value) << what << " i=" << i;
  }
}

// Radix-sorts `input` and returns the records from whichever buffer the
// sort reports as holding them.
template <typename K>
std::vector<KV<K, uint32_t>> RadixSorted(std::vector<KV<K, uint32_t>> input) {
  std::vector<KV<K, uint32_t>> scratch(input.size());
  const KV<K, uint32_t>* sorted =
      RadixSortByKey(input.data(), scratch.data(), input.size());
  EXPECT_TRUE(sorted == input.data() || sorted == scratch.data());
  return {sorted, sorted + input.size()};
}

// Records with keys drawn by `key_of(rng)` and values = input position, so
// a value order mismatch among equal keys shows up as a stability bug.
template <typename K, typename KeyFn>
std::vector<KV<K, uint32_t>> IndexedRecords(size_t n, uint64_t seed,
                                            KeyFn key_of) {
  Rng rng(seed);
  std::vector<KV<K, uint32_t>> records(n);
  for (size_t i = 0; i < n; ++i) {
    records[i] = {key_of(rng), static_cast<uint32_t>(i)};
  }
  return records;
}

template <typename K>
class ShuffleKernelTest : public ::testing::Test {};
using ShuffleKeyTypes = ::testing::Types<uint32_t, uint64_t>;
TYPED_TEST_SUITE(ShuffleKernelTest, ShuffleKeyTypes);

TYPED_TEST(ShuffleKernelTest, MatchesStableSortAcrossLengthsAndKeySpreads) {
  using K = TypeParam;
  constexpr K kMax = std::numeric_limits<K>::max();
  // 0, 1, the insertion-sort cutoff and its neighbours, and 65536 + 7.
  const size_t m = kRadixSortSmallN;
  for (size_t n : {size_t{0}, size_t{1}, m - 1, m, m + 1, size_t{65543}}) {
    // Narrow keys (heavy duplication, one or two digits), node-id-sized
    // keys, full-width keys, and keys crowded at the top of the range.
    auto narrow = [](Rng& r) { return static_cast<K>(r.UniformU64(13)); };
    auto node_ids = [](Rng& r) {
      return static_cast<K>(r.UniformU64(200000));
    };
    auto full = [](Rng& r) { return static_cast<K>(r.NextU64()); };
    auto top = [&](Rng& r) { return static_cast<K>(kMax - r.UniformU64(3)); };
    const std::string len = "n=" + std::to_string(n);
    auto check = [&](const std::vector<KV<K, uint32_t>>& input,
                     const std::string& what) {
      ExpectSameRecords(RadixSorted(input), StableSortedByKey(input),
                        what + " " + len);
    };
    check(IndexedRecords<K>(n, 1, narrow), "narrow");
    check(IndexedRecords<K>(n, 2, node_ids), "node ids");
    check(IndexedRecords<K>(n, 3, full), "full width");
    check(IndexedRecords<K>(n, 4, top), "top of range");
    // Already sorted, two sorted runs back to back (one descent), and
    // reversed.
    auto ascending = StableSortedByKey(IndexedRecords<K>(n, 5, node_ids));
    check(ascending, "ascending");
    auto one_descent = ascending;
    std::rotate(one_descent.begin(), one_descent.begin() + n / 3,
                one_descent.end());
    check(one_descent, "one descent");
    std::reverse(ascending.begin(), ascending.end());
    check(ascending, "reversed");
  }
}

TYPED_TEST(ShuffleKernelTest, AllEqualKeysKeepInputOrder) {
  using K = TypeParam;
  for (K key : {K{0}, K{77}, std::numeric_limits<K>::max()}) {
    for (size_t n : {kRadixSortSmallN - 1, size_t{5000}}) {
      auto records = IndexedRecords<K>(n, 5, [&](Rng&) { return key; });
      ExpectSameRecords(RadixSorted(records), records, "all equal");
    }
  }
}

TYPED_TEST(ShuffleKernelTest, DuplicateKeysKeepValueOrder) {
  using K = TypeParam;
  // Every key appears many times with distinct values, and the keys differ
  // only in high bits, so the sort must skip the agreeing low digits and
  // still keep each key's values in input order.
  auto records = IndexedRecords<K>(20000, 6, [](Rng& r) {
    return static_cast<K>(r.UniformU64(4) << (8 * sizeof(K) - 2));
  });
  ExpectSameRecords(RadixSorted(records), StableSortedByKey(records),
                    "high-bit duplicates");
}

// Merges `runs` (each key-sorted) through a LoserTree, one record per
// replay, and returns the records in merge order.
template <typename K>
std::vector<KV<K, uint32_t>> LoserTreeMerge(
    const std::vector<std::vector<KV<K, uint32_t>>>& runs) {
  using Tree = LoserTree<K>;
  std::vector<size_t> pos(runs.size(), 0);
  auto head_of = [&](uint32_t r) {
    return pos[r] == runs[r].size() ? Tree::kExhausted
                                    : Tree::Pack(runs[r][pos[r]].key, r);
  };
  std::vector<typename Tree::Head> heads;
  heads.reserve(runs.size());
  for (uint32_t r = 0; r < runs.size(); ++r) heads.push_back(head_of(r));
  Tree tree(heads);
  std::vector<KV<K, uint32_t>> out;
  while (tree.winner() != Tree::kExhausted) {
    const uint32_t r = Tree::RunOf(tree.winner());
    EXPECT_EQ(Tree::KeyOf(tree.winner()), runs[r][pos[r]].key);
    out.push_back(runs[r][pos[r]++]);
    tree.ReplaceWinner(head_of(r));
  }
  return out;
}

// `num_runs` sorted runs whose lengths and key ranges differ, so they
// exhaust at different times; run 0 is empty whenever there are several,
// and every third run ends on the largest key. Values number the records
// in run-major order.
template <typename K>
std::vector<std::vector<KV<K, uint32_t>>> StaggeredRuns(size_t num_runs,
                                                        uint64_t seed) {
  constexpr K kMax = std::numeric_limits<K>::max();
  Rng rng(seed);
  std::vector<std::vector<KV<K, uint32_t>>> runs(num_runs);
  uint32_t next_value = 0;
  for (size_t r = 0; r < num_runs; ++r) {
    const size_t len = (num_runs > 1 && r == 0) ? 0 : 40 + 37 * (r % 7);
    const uint64_t range = 5 + 11 * (r % 5);
    for (size_t i = 0; i < len; ++i) {
      K key = static_cast<K>(rng.UniformU64(range));
      if (r % 3 == 2 && i + 3 >= len) key = kMax;
      runs[r].push_back({key, next_value++});
    }
    runs[r] = StableSortedByKey(runs[r]);
  }
  return runs;
}

TYPED_TEST(ShuffleKernelTest, LoserTreeMergesInKeyThenRunOrder) {
  using K = TypeParam;
  for (size_t num_runs : {1u, 2u, 3u, 5u, 33u}) {
    auto runs = StaggeredRuns<K>(num_runs, 100 + num_runs);
    std::vector<KV<K, uint32_t>> all;
    for (const auto& run : runs) all.insert(all.end(), run.begin(), run.end());
    ExpectSameRecords(LoserTreeMerge(runs), StableSortedByKey(all),
                      "runs=" + std::to_string(num_runs));
  }
}

TYPED_TEST(ShuffleKernelTest, LoserTreePacksTheLargestKeyBelowExhausted) {
  using Tree = LoserTree<TypeParam>;
  constexpr TypeParam kMax = std::numeric_limits<TypeParam>::max();
  const auto head = Tree::Pack(kMax, static_cast<uint32_t>(Tree::kMaxRuns));
  EXPECT_LT(head, Tree::kExhausted);
  EXPECT_EQ(Tree::KeyOf(head), kMax);
  EXPECT_EQ(Tree::RunOf(head), Tree::kMaxRuns);
  // An all-exhausted tree has no winner.
  Tree tree({Tree::kExhausted, Tree::kExhausted, Tree::kExhausted});
  EXPECT_EQ(tree.winner(), Tree::kExhausted);
}

TYPED_TEST(ShuffleKernelTest, SpilledRunsMergeToTheStableGroups) {
  // The same staggered runs pushed through a one-partition ShuffleWriter:
  // each run is one Append that overflows the budget and spills at the
  // spill check after it, then a tail stays in memory. The grouped reduce
  // must see every key's values in run order — the stable sort of the
  // append sequence.
  using K = TypeParam;
  using Rec = KV<K, uint32_t>;
  constexpr K kMax = std::numeric_limits<K>::max();
  constexpr size_t kShareRecords = 36;
  for (size_t num_runs : {1u, 2u, 3u, 5u, 33u}) {
    auto runs = StaggeredRuns<K>(num_runs, 200 + num_runs);
    JobOptions opts;
    opts.num_partitions = 1;
    opts.spill_budget_bytes = kShareRecords * sizeof(Rec);
    ShuffleWriter<K, uint32_t> shuffle(1, opts, /*reduce_threads=*/1);
    std::vector<Rec> all;
    size_t spilled = 0;
    for (auto& run : runs) {
      // Runs are appended unsorted (reversed); the spill sorts them.
      std::vector<Rec> chunk(run.rbegin(), run.rend());
      all.insert(all.end(), chunk.begin(), chunk.end());
      if (chunk.size() > kShareRecords) ++spilled;
      shuffle.Append(std::move(chunk));
      ASSERT_TRUE(shuffle.SpillOverBudget().ok());
    }
    // A tail below the share: it stays resident and merges last.
    std::vector<Rec> tail = {{kMax, 90000}, {K{1}, 90001}, {K{0}, 90002}};
    all.insert(all.end(), tail.begin(), tail.end());
    shuffle.Append(std::move(tail));
    ASSERT_TRUE(shuffle.SpillOverBudget().ok());
    ASSERT_EQ(shuffle.spill_runs(), spilled);

    std::vector<Rec> merged;
    std::vector<uint32_t> values;
    std::vector<K> keys;
    auto collect = [&](K key, const std::vector<uint32_t>& vs) {
      keys.push_back(key);
      for (uint32_t v : vs) merged.push_back({key, v});
    };
    ASSERT_TRUE(shuffle.ReducePartition(0, &values, collect).ok());
    const std::string what = "runs=" + std::to_string(num_runs);
    ExpectSameRecords(merged, StableSortedByKey(all), what);
    for (size_t i = 1; i < keys.size(); ++i) {
      EXPECT_LT(keys[i - 1], keys[i]) << what << ": one group per key";
    }
    EXPECT_EQ(shuffle.spill_bytes_read(), shuffle.spill_bytes_written());
  }
}

// ---- Reference model: the engine against a comparison-sort oracle. ----

// The job under test: every input record maps to two keys (one of them
// the largest key for some records), the combiner and the reducer both
// fold their values order-sensitively, and the combiner emits a second
// record for some keys — so any change in chunking, partitioning, sort
// stability or merge order changes the output bytes.
template <typename K>
struct ReferenceJob {
  static K KeyOf(uint32_t x, uint32_t salt) {
    const uint64_t h = Mix64(uint64_t{x} * 4 + salt);
    if (h % 97 == 0) return std::numeric_limits<K>::max();
    if constexpr (sizeof(K) == 8) {
      return (h % 300) << 40 | (h >> 20) % 5;
    } else {
      return static_cast<K>(h % 3000);
    }
  }
  static uint32_t Fold(const std::vector<uint32_t>& vs) {
    uint64_t h = 17;
    for (uint32_t v : vs) h = h * 1000003 + v;
    return static_cast<uint32_t>(h ^ (h >> 32));
  }
  static void Map(const uint32_t& id, const uint32_t& x,
                  Emitter<K, uint32_t>& emit) {
    emit.Emit(KeyOf(x, 0), id);
    emit.Emit(KeyOf(x, 1), x);
  }
  static void Combine(const K& key, const std::vector<uint32_t>& vs,
                      Emitter<K, uint32_t>& emit) {
    emit.Emit(key, Fold(vs));
    if (key % 7 == 0) emit.Emit(key, static_cast<uint32_t>(vs.size()));
  }
  static void Reduce(const K& key, const std::vector<uint32_t>& vs,
                     Emitter<K, uint64_t>& emit) {
    emit.Emit(key, (uint64_t{Fold(vs)} << 32) | vs.size());
  }
};

// Groups a stable-sorted range with a plain loop (no engine code).
template <typename K, typename V, typename Fn>
void GroupSorted(const std::vector<KV<K, V>>& sorted, Fn fn) {
  std::vector<V> values;
  for (size_t i = 0; i < sorted.size();) {
    size_t j = i;
    values.clear();
    for (; j < sorted.size() && sorted[j].key == sorted[i].key; ++j) {
      values.push_back(sorted[j].value);
    }
    fn(sorted[i].key, values);
    i = j;
  }
}

// What the engine must produce: chunk the input, map, combine each chunk
// by std::stable_sort + group, partition by Mix64(key) in chunk order,
// then per partition std::stable_sort + group + reduce, partitions
// concatenated in order.
template <typename K>
std::vector<KV<K, uint64_t>> ReferenceModel(
    const std::vector<KV<uint32_t, uint32_t>>& input, const JobOptions& opts,
    bool combine) {
  using Job = ReferenceJob<K>;
  auto by_key = [](const auto& a, const auto& b) { return a.key < b.key; };
  std::vector<std::vector<KV<K, uint32_t>>> partitions(opts.num_partitions);
  for (size_t start = 0; start < input.size();
       start += opts.map_chunk_records) {
    const size_t end = std::min(input.size(), start + opts.map_chunk_records);
    std::vector<KV<K, uint32_t>> mapped;
    Emitter<K, uint32_t> map_emit(&mapped);
    for (size_t i = start; i < end; ++i) {
      Job::Map(input[i].key, input[i].value, map_emit);
    }
    if (combine) {
      std::stable_sort(mapped.begin(), mapped.end(), by_key);
      std::vector<KV<K, uint32_t>> combined;
      Emitter<K, uint32_t> combine_emit(&combined);
      GroupSorted(mapped, [&](K key, const std::vector<uint32_t>& vs) {
        Job::Combine(key, vs, combine_emit);
      });
      mapped = std::move(combined);
    }
    for (const auto& kv : mapped) {
      partitions[Mix64(kv.key) % opts.num_partitions].push_back(kv);
    }
  }
  std::vector<KV<K, uint64_t>> out;
  Emitter<K, uint64_t> reduce_emit(&out);
  for (auto& part : partitions) {
    std::stable_sort(part.begin(), part.end(), by_key);
    GroupSorted(part, [&](K key, const std::vector<uint32_t>& vs) {
      Job::Reduce(key, vs, reduce_emit);
    });
  }
  return out;
}

template <typename K>
void ExpectEngineMatchesReferenceModel() {
  using Job = ReferenceJob<K>;
  Rng rng(91);
  std::vector<KV<uint32_t, uint32_t>> input(12000);
  for (uint32_t i = 0; i < input.size(); ++i) {
    input[i] = {i, static_cast<uint32_t>(rng.NextU64())};
  }
  JobOptions base;
  base.map_chunk_records = 700;  // 18 chunks, the last one short
  for (bool combine : {false, true}) {
    const auto want = ReferenceModel<K>(input, base, combine);
    // Budget 1 << 15 still spills (each partition's share is 2 KiB), but
    // sizes the merges' refills above the 64-record floor (all but 16-byte
    // records at 4 threads); at one thread a whole run fits one refill.
    // Budgets 1 and 4096 sit on the floor.
    for (size_t threads : {1u, 2u, 4u}) {
      for (uint64_t budget :
           {uint64_t{0}, uint64_t{1}, uint64_t{4096}, uint64_t{1} << 15}) {
        const std::string what = "combine=" + std::to_string(combine) +
                                 " threads=" + std::to_string(threads) +
                                 " budget=" + std::to_string(budget);
        MapReduceEnv env({}, threads);
        VectorRecordSource<uint32_t, uint32_t> source(input);
        JobOptions opts = base;
        opts.spill_budget_bytes = budget;
        JobStats stats;
        auto run = [&](auto combiner) {
          return RunJobOnSource<K, uint32_t, K, uint64_t>(
              env, source, opts, Job::Map, combiner, Job::Reduce, &stats);
        };
        auto got = combine ? run(Job::Combine) : run(NoCombiner);
        ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
        if (budget > 0) {
          EXPECT_GT(stats.spill_runs, 0u) << what;
          // The spill check runs once per map round (2 chunks per thread),
          // so even a budget below one chunk spills each partition at most
          // once per round.
          const size_t chunks =
              (input.size() + base.map_chunk_records - 1) /
              base.map_chunk_records;
          const size_t rounds = (chunks + 2 * threads - 1) / (2 * threads);
          EXPECT_LE(stats.spill_runs, rounds * base.num_partitions) << what;
        }
        // The merge reads every spilled byte back, exactly once.
        EXPECT_EQ(stats.spill_bytes_read, stats.spill_bytes_written) << what;
        ExpectSameRecords(*got, want, what);
      }
    }
  }
}

TEST(ShuffleReferenceModelTest, Uint32KeysMatchComparisonSortOracle) {
  ExpectEngineMatchesReferenceModel<uint32_t>();
}

TEST(ShuffleReferenceModelTest, Uint64KeysMatchComparisonSortOracle) {
  ExpectEngineMatchesReferenceModel<uint64_t>();
}

}  // namespace
}  // namespace densest
