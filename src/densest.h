// Copyright 2026 The densest Authors.
// Umbrella header: the full public API of the densest library.
//
//   #include "densest.h"
//
//   densest::UndirectedGraph g = ...;
//   auto result = densest::RunAlgorithm1(g, {.epsilon = 0.5});

#ifndef DENSEST_DENSEST_H_
#define DENSEST_DENSEST_H_

#include "common/histogram.h"    // IWYU pragma: export
#include "common/random.h"       // IWYU pragma: export
#include "common/status.h"       // IWYU pragma: export
#include "common/timer.h"        // IWYU pragma: export
#include "core/algorithm1.h"     // IWYU pragma: export
#include "core/algorithm2.h"     // IWYU pragma: export
#include "core/algorithm3.h"     // IWYU pragma: export
#include "core/charikar.h"       // IWYU pragma: export
#include "core/density.h"        // IWYU pragma: export
#include "core/enumerate.h"      // IWYU pragma: export
#include "core/kcore.h"          // IWYU pragma: export
#include "core/multi_run.h"      // IWYU pragma: export
#include "flow/brute_force.h"    // IWYU pragma: export
#include "flow/goldberg.h"       // IWYU pragma: export
#include "gen/chung_lu.h"        // IWYU pragma: export
#include "gen/datasets.h"        // IWYU pragma: export
#include "gen/erdos_renyi.h"     // IWYU pragma: export
#include "gen/lower_bound.h"     // IWYU pragma: export
#include "gen/planted.h"         // IWYU pragma: export
#include "gen/preferential_attachment.h"  // IWYU pragma: export
#include "gen/regular.h"         // IWYU pragma: export
#include "gen/rmat.h"            // IWYU pragma: export
#include "graph/graph_builder.h" // IWYU pragma: export
#include "graph/stats.h"         // IWYU pragma: export
#include "graph/subgraph.h"      // IWYU pragma: export
#include "io/csv_writer.h"       // IWYU pragma: export
#include "io/edge_list_io.h"     // IWYU pragma: export
#include "mapreduce/mr_densest.h"  // IWYU pragma: export
#include "sketch/sketched_algorithm1.h"  // IWYU pragma: export
#include "stream/file_stream.h"  // IWYU pragma: export
#include "stream/generated_stream.h"  // IWYU pragma: export
#include "stream/memory_stream.h"  // IWYU pragma: export
#include "stream/pass_stats.h"   // IWYU pragma: export

#endif  // DENSEST_DENSEST_H_
