#include "mapreduce/graph_jobs.h"

#include <limits>
#include <string>

namespace densest {

namespace {

/// Sum of counts: the combiner (T = P, one chunk's partial sum) and the
/// reducer (T = EdgeId, the total) of the count jobs, whose shuffle values
/// are P.
template <typename T, typename K, typename P = T>
void SumCounts(const K& key, const std::vector<P>& partials,
               Emitter<K, T>& emit) {
  T total = 0;
  for (P x : partials) total += x;
  emit.Emit(key, total);
}

/// A chunk's partial count of one key is at most 2 * map_chunk_records
/// (a self-loop emits its node twice); refuses chunks whose partials could
/// overflow PartialCount.
Status CheckPartialCountWidth(const JobOptions& options) {
  constexpr uint64_t kMaxPartial = std::numeric_limits<PartialCount>::max();
  if (options.map_chunk_records > kMaxPartial / 2) {
    return Status::InvalidArgument(
        "map_chunk_records " + std::to_string(options.map_chunk_records) +
        " too large for 32-bit partial counts (at most " +
        std::to_string(kMaxPartial / 2) + ")");
  }
  return Status::OK();
}

/// Shared reducer of the removal passes: a key whose values contain the $
/// marker (kInvalidNode) emits nothing; otherwise edges survive. `flip`
/// restores the original orientation when pivoting on the second endpoint.
void RemovalReduce(const NodeId& key, const std::vector<NodeId>& values,
                   Emitter<NodeId, NodeId>& emit, bool flip) {
  for (NodeId v : values) {
    if (v == kInvalidNode) return;  // marked: drop all incident edges
  }
  for (NodeId v : values) {
    if (flip) {
      emit.Emit(v, key);
    } else {
      emit.Emit(key, v);
    }
  }
}

/// One <v;$> marker record per marked node.
MrEdges MakeMarkers(const NodeSet& marked) {
  MrEdges markers;
  markers.reserve(marked.size());
  for (NodeId u = 0; u < marked.universe_size(); ++u) {
    if (marked.Contains(u)) {
      markers.push_back(KV<NodeId, NodeId>{u, kInvalidNode});
    }
  }
  return markers;
}

}  // namespace

MrEdges ToMrEdges(const std::vector<Edge>& edges) {
  MrEdges out;
  out.reserve(edges.size());
  for (const Edge& e : edges) {
    out.push_back(KV<NodeId, NodeId>{e.u, e.v});
  }
  return out;
}

std::vector<KV<NodeId, EdgeId>> MrDegreeJob(MapReduceEnv& env,
                                            const MrEdges& edges,
                                            JobStats* stats) {
  // §5.2: duplicate each edge (u,v) as <u;v> and <v;u>; the reducer for u
  // then sees all of u's neighbors and counts them.
  return RunJob<NodeId, NodeId, NodeId, EdgeId>(
      env, edges,
      [](const NodeId& u, const NodeId& v, Emitter<NodeId, NodeId>& emit) {
        emit.Emit(u, v);
        emit.Emit(v, u);
      },
      [](const NodeId& u, const std::vector<NodeId>& neighbors,
         Emitter<NodeId, EdgeId>& emit) {
        emit.Emit(u, static_cast<EdgeId>(neighbors.size()));
      },
      stats);
}

StatusOr<std::vector<KV<NodeId, EdgeId>>> MrDegreeJobCombined(
    MapReduceEnv& env, MrEdgeSource& edges, const JobOptions& options,
    JobStats* stats) {
  if (Status s = CheckPartialCountWidth(options); !s.ok()) return s;
  JobOptions opts = options;
  opts.map_fanout_hint = 2.0;  // two partial counts per edge
  return RunJobOnSource<NodeId, PartialCount, NodeId, EdgeId>(
      env, edges, opts,
      [](const NodeId& u, const NodeId& v,
         Emitter<NodeId, PartialCount>& emit) {
        emit.Emit(u, 1);
        emit.Emit(v, 1);
      },
      SumCounts<PartialCount, NodeId>, SumCounts<EdgeId, NodeId, PartialCount>,
      stats);
}

std::vector<KV<NodeId, EdgeId>> MrDegreeJobCombined(MapReduceEnv& env,
                                                    const MrEdges& edges,
                                                    JobStats* stats) {
  VectorRecordSource<NodeId, NodeId> source(edges);
  return std::move(*MrDegreeJobCombined(env, source, JobOptions{}, stats));
}

std::vector<KV<uint64_t, EdgeId>> MrDirectedDegreeJob(MapReduceEnv& env,
                                                      const MrEdges& arcs,
                                                      JobStats* stats) {
  return RunJob<uint64_t, NodeId, uint64_t, EdgeId>(
      env, arcs,
      [](const NodeId& u, const NodeId& v, Emitter<uint64_t, NodeId>& emit) {
        emit.Emit(2 * static_cast<uint64_t>(u), v);      // out-degree slot
        emit.Emit(2 * static_cast<uint64_t>(v) + 1, u);  // in-degree slot
      },
      [](const uint64_t& key, const std::vector<NodeId>& endpoints,
         Emitter<uint64_t, EdgeId>& emit) {
        emit.Emit(key, static_cast<EdgeId>(endpoints.size()));
      },
      stats);
}

StatusOr<std::vector<KV<uint64_t, EdgeId>>> MrDirectedDegreeJobCombined(
    MapReduceEnv& env, MrEdgeSource& arcs, const JobOptions& options,
    JobStats* stats) {
  JobOptions opts = options;
  opts.map_fanout_hint = 2.0;
  return RunJobOnSource<uint64_t, EdgeId, uint64_t, EdgeId>(
      env, arcs, opts,
      [](const NodeId& u, const NodeId& v, Emitter<uint64_t, EdgeId>& emit) {
        emit.Emit(2 * static_cast<uint64_t>(u), 1);      // out-degree slot
        emit.Emit(2 * static_cast<uint64_t>(v) + 1, 1);  // in-degree slot
      },
      SumCounts<EdgeId, uint64_t>, SumCounts<EdgeId, uint64_t>, stats);
}

StatusOr<EdgeId> MrCountEdgesJob(MapReduceEnv& env, MrEdgeSource& edges,
                                 const JobOptions& options, JobStats* stats) {
  if (Status s = CheckPartialCountWidth(options); !s.ok()) return s;
  StatusOr<std::vector<KV<NodeId, EdgeId>>> totals =
      RunJobOnSource<NodeId, PartialCount, NodeId, EdgeId>(
          env, edges, options,
          [](const NodeId&, const NodeId&,
             Emitter<NodeId, PartialCount>& emit) { emit.Emit(0, 1); },
          SumCounts<PartialCount, NodeId>,
          SumCounts<EdgeId, NodeId, PartialCount>, stats);
  if (!totals.ok()) return totals.status();
  return totals->empty() ? EdgeId{0} : totals->front().value;
}

EdgeId MrCountEdgesJob(MapReduceEnv& env, const MrEdges& edges,
                       JobStats* stats) {
  VectorRecordSource<NodeId, NodeId> source(edges);
  return *MrCountEdgesJob(env, source, JobOptions{}, stats);
}

StatusOr<MrEdges> MrRemoveNodesJob(MapReduceEnv& env, MrEdgeSource& edges,
                                   const NodeSet& marked,
                                   const JobOptions& options,
                                   JobStats* pass1_stats,
                                   JobStats* pass2_stats) {
  MrEdges markers = MakeMarkers(marked);
  VectorRecordSource<NodeId, NodeId> marker_source(markers);

  // Pass 1: pivot on the first endpoint (markers are already keyed by
  // their node, so the map is the identity).
  ChainRecordSource<NodeId, NodeId> input1(edges, marker_source);
  StatusOr<MrEdges> survivors1 = RunJobOnSource<NodeId, NodeId, NodeId, NodeId>(
      env, input1, options,
      [](const NodeId& k, const NodeId& v, Emitter<NodeId, NodeId>& emit) {
        emit.Emit(k, v);
      },
      NoCombiner,
      [](const NodeId& k, const std::vector<NodeId>& values,
         Emitter<NodeId, NodeId>& emit) {
        RemovalReduce(k, values, emit, /*flip=*/false);
      },
      pass1_stats);
  if (!survivors1.ok()) return survivors1.status();

  // Pass 2: pivot on the second endpoint — the map flips each surviving
  // edge (markers stay keyed by their node); the reducer flips back.
  VectorRecordSource<NodeId, NodeId> survivor_source(*survivors1);
  ChainRecordSource<NodeId, NodeId> input2(survivor_source, marker_source);
  return RunJobOnSource<NodeId, NodeId, NodeId, NodeId>(
      env, input2, options,
      [](const NodeId& k, const NodeId& v, Emitter<NodeId, NodeId>& emit) {
        if (v == kInvalidNode) {
          emit.Emit(k, v);
        } else {
          emit.Emit(v, k);
        }
      },
      NoCombiner,
      [](const NodeId& k, const std::vector<NodeId>& values,
         Emitter<NodeId, NodeId>& emit) {
        RemovalReduce(k, values, emit, /*flip=*/true);
      },
      pass2_stats);
}

MrEdges MrRemoveNodesJob(MapReduceEnv& env, const MrEdges& edges,
                         const NodeSet& marked, JobStats* pass1_stats,
                         JobStats* pass2_stats) {
  VectorRecordSource<NodeId, NodeId> source(edges);
  return std::move(*MrRemoveNodesJob(env, source, marked, JobOptions{},
                                     pass1_stats, pass2_stats));
}

StatusOr<MrEdges> MrRemoveArcsJob(MapReduceEnv& env, MrEdgeSource& arcs,
                                  const NodeSet& marked, bool by_source,
                                  const JobOptions& options,
                                  JobStats* stats) {
  MrEdges markers = MakeMarkers(marked);
  VectorRecordSource<NodeId, NodeId> marker_source(markers);
  ChainRecordSource<NodeId, NodeId> input(arcs, marker_source);
  return RunJobOnSource<NodeId, NodeId, NodeId, NodeId>(
      env, input, options,
      [by_source](const NodeId& k, const NodeId& v,
                  Emitter<NodeId, NodeId>& emit) {
        if (by_source || v == kInvalidNode) {
          emit.Emit(k, v);
        } else {
          emit.Emit(v, k);  // pivot on the target endpoint
        }
      },
      NoCombiner,
      [by_source](const NodeId& k, const std::vector<NodeId>& values,
                  Emitter<NodeId, NodeId>& emit) {
        RemovalReduce(k, values, emit, /*flip=*/!by_source);
      },
      stats);
}

MrEdges MrRemoveArcsJob(MapReduceEnv& env, const MrEdges& arcs,
                        const NodeSet& marked, bool by_source,
                        JobStats* stats) {
  VectorRecordSource<NodeId, NodeId> source(arcs);
  return std::move(
      *MrRemoveArcsJob(env, source, marked, by_source, JobOptions{}, stats));
}

}  // namespace densest
