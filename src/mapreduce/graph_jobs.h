// Copyright 2026 The densest Authors.
// The paper's §5.2 graph primitives as MapReduce jobs over a distributed
// edge list: per-node degrees and the two-pass removal of marked nodes and
// their incident edges. §5.2's density step needs no job of its own: the
// drivers (mapreduce/mr_densest.h) derive |E(S)| from the degree job's
// output, as half the degree sum (undirected) or the out-degree sum
// (directed).
//
// Every job has one form: it reads an MrEdgeSource (a StreamRecordSource
// scans a disk- or generator-backed EdgeStream without materializing it; a
// VectorRecordSource reads records already in memory), takes JobOptions
// for the shuffle spill budget, and returns a StatusOr, since a stream
// scan or a spill can fail.

#ifndef DENSEST_MAPREDUCE_GRAPH_JOBS_H_
#define DENSEST_MAPREDUCE_GRAPH_JOBS_H_

#include <vector>

#include "graph/subgraph.h"
#include "graph/types.h"
#include "mapreduce/job.h"

namespace densest {

/// A distributed edge list: one record per edge (key = first endpoint,
/// value = second endpoint). Undirected edges appear once, in arbitrary
/// orientation; arcs are (source; target).
using MrEdges = std::vector<KV<NodeId, NodeId>>;

/// The input of every job: a RecordSource of such records (e.g. a
/// StreamRecordSource over any EdgeStream, or a VectorRecordSource over
/// MrEdges).
using MrEdgeSource = RecordSource<NodeId, NodeId>;

/// The shuffle value type of MrDegreeJobCombined: one map chunk's combined
/// count of a node. It is at most 2 * map_chunk_records, so 32 bits hold it,
/// and a record is 8 bytes instead of the 16 of a padded (NodeId, EdgeId)
/// pair. The reducer sums the partials into EdgeId, so the job's output
/// type and values do not depend on it. The job returns InvalidArgument
/// when 2 * map_chunk_records exceeds UINT32_MAX. The edge count the
/// drivers derive from its output is summed in EdgeId, never in a
/// PartialCount. MrDirectedDegreeJobCombined
/// keeps EdgeId partials: its 64-bit key pads a 32-bit value back to 16
/// bytes, so a narrower value would save nothing.
using PartialCount = uint32_t;

/// §5.2 degree job: map (u;v) -> (u;v), (v;u); reduce counts neighbors.
/// Output: one (u; deg) record per node with at least one incident edge.
/// The drivers run MrDegreeJobCombined; this uncombined form is its
/// reference.
StatusOr<std::vector<KV<NodeId, EdgeId>>> MrDegreeJob(
    MapReduceEnv& env, MrEdgeSource& edges, const JobOptions& options,
    JobStats* stats = nullptr);

/// Combiner-optimized degree job: maps to (u;1), (v;1) partial counts and
/// sums them map-side before the shuffle (the classic Hadoop word-count
/// optimization). Identical output to MrDegreeJob with the shuffle shrunk
/// from O(|E|) records to O(|V_alive|) per map chunk.
StatusOr<std::vector<KV<NodeId, EdgeId>>> MrDegreeJobCombined(
    MapReduceEnv& env, MrEdgeSource& edges, const JobOptions& options,
    JobStats* stats = nullptr);

/// Directed degree job: one pass computing both |E(i, T)| out-degrees and
/// |E(S, j)| in-degrees. Keys encode (node, side): key = 2*node + side,
/// side 0 = out, side 1 = in. The reference of
/// MrDirectedDegreeJobCombined, which the driver runs.
StatusOr<std::vector<KV<uint64_t, EdgeId>>> MrDirectedDegreeJob(
    MapReduceEnv& env, MrEdgeSource& arcs, const JobOptions& options,
    JobStats* stats = nullptr);

/// Combiner-optimized directed degree job (partial counts summed map-side;
/// same output as MrDirectedDegreeJob).
StatusOr<std::vector<KV<uint64_t, EdgeId>>> MrDirectedDegreeJobCombined(
    MapReduceEnv& env, MrEdgeSource& arcs, const JobOptions& options,
    JobStats* stats = nullptr);

/// §5.2 node-removal: two jobs. Pass 1 pivots on the first endpoint (the
/// map keys each edge by u and adds a (v;$) marker per removed node v; a
/// reducer whose values contain $ drops its edges). Pass 2 pivots on the
/// second endpoint. Returns the surviving edges; orientation is restored.
/// `marked` flags the nodes being removed. Pass 1 scans `edges` (one
/// physical scan when stream-backed); pass 2 runs over pass 1's in-memory
/// survivors.
StatusOr<MrEdges> MrRemoveNodesJob(MapReduceEnv& env, MrEdgeSource& edges,
                                   const NodeSet& marked,
                                   const JobOptions& options,
                                   JobStats* pass1_stats = nullptr,
                                   JobStats* pass2_stats = nullptr);

/// One-sided removal for the directed algorithm: drops arcs whose
/// *source* (if `by_source`) or *target* endpoint is marked. Single job.
StatusOr<MrEdges> MrRemoveArcsJob(MapReduceEnv& env, MrEdgeSource& arcs,
                                  const NodeSet& marked, bool by_source,
                                  const JobOptions& options,
                                  JobStats* stats = nullptr);

}  // namespace densest

#endif  // DENSEST_MAPREDUCE_GRAPH_JOBS_H_
