// Reproduces Table 2: empirical approximation ratios rho*(G) / rho~(G) of
// Algorithm 1 for eps in {0.001, 0.1, 1} on seven SNAP-scale graphs.
// The paper computed rho* with an LP (CLP); we use the exact max-flow
// solver (same optimum — see DESIGN.md section 3). The three-eps grid per
// graph runs as one fused sweep over a PassEngine (one physical scan per
// pass round feeds all epsilons) instead of once per epsilon.

#include <cstdio>

#include "bench_common.h"
#include "common/timer.h"
#include "core/algorithm1.h"
#include "core/multi_run.h"
#include "flow/goldberg.h"
#include "gen/datasets.h"
#include "graph/undirected_graph.h"
#include "stream/memory_stream.h"

int main() {
  using namespace densest;
  bench::Banner("Table 2",
                "Empirical approximation bounds rho*/rho~ for various eps "
                "(fused epsilon grid)");

  const std::vector<double> kEpsilons = {0.001, 0.1, 1.0};
  auto csv = bench::OpenCsv(
      "table2_quality",
      {"graph", "nodes", "edges", "paper_rho_star", "rho_star",
       "ratio_eps0.001", "ratio_eps0.1", "ratio_eps1"});

  std::printf("%-14s %8s %9s | %9s %9s | %-8s %-8s %-8s\n", "G", "|V|",
              "|E|", "paper rho*", "our rho*", "e=0.001", "e=0.1", "e=1");

  PassEngine engine;  // reused across the per-graph sweeps
  uint64_t fused_scans = 0;
  uint64_t logical_scans = 0;
  for (const SnapStandInSpec& spec : Table2Specs()) {
    EdgeList edges = MakeSnapStandIn(spec, 0xdb5eed);
    UndirectedGraph g = UndirectedGraph::FromEdgeList(edges);

    WallTimer timer;
    auto exact = ExactDensestSubgraph(g);
    if (!exact.ok()) {
      std::printf("%-14s exact solver failed: %s\n", spec.name.c_str(),
                  exact.status().ToString().c_str());
      return 1;
    }

    UndirectedGraphStream stream(g);
    Algorithm1Options base;
    base.record_trace = false;
    auto sweep = RunAlgorithm1EpsilonSweep(stream, base, kEpsilons, &engine);
    if (!sweep.ok()) {
      std::printf("%-14s sweep failed: %s\n", spec.name.c_str(),
                  sweep.status().ToString().c_str());
      return 1;
    }
    fused_scans += engine.last_physical_passes();
    logical_scans += engine.last_logical_passes();

    double ratios[3] = {0, 0, 0};
    for (size_t i = 0; i < kEpsilons.size(); ++i) {
      if ((*sweep)[i].density > 0) {
        ratios[i] = exact->density / (*sweep)[i].density;
      }
    }

    std::printf("%-14s %8u %9llu | %9.2f %9.2f | %-8.3f %-8.3f %-8.3f  (%.1fs, %d flows)\n",
                spec.name.c_str(), g.num_nodes(),
                static_cast<unsigned long long>(g.num_edges()),
                spec.paper_rho, exact->density, ratios[0], ratios[1],
                ratios[2], timer.ElapsedSeconds(), exact->flow_iterations);
    if (csv.ok()) {
      csv->AddRow({spec.name, std::to_string(g.num_nodes()),
                   std::to_string(g.num_edges()),
                   CsvWriter::Num(spec.paper_rho),
                   CsvWriter::Num(exact->density), CsvWriter::Num(ratios[0]),
                   CsvWriter::Num(ratios[1]), CsvWriter::Num(ratios[2])});
    }
  }
  std::printf("\nfused epsilon grids: %llu physical scans total (run-by-run "
              "would cost %llu)\n",
              static_cast<unsigned long long>(fused_scans),
              static_cast<unsigned long long>(logical_scans));
  std::printf("Paper's observation to reproduce: ratios stay near 1 "
              "(1.0-1.43), far below the 2(1+eps) worst case.\n");
  return 0;
}
