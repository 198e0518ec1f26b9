// Ablation (§4.2): Algorithm 2's size-density trade-off on flickr-sim —
// how the best density of a >=k-node subgraph and the pass count (Lemma 11:
// O(log_{1+eps}(n/k))) vary with k.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/algorithm1.h"
#include "core/algorithm2.h"
#include "core/multi_run.h"
#include "gen/datasets.h"
#include "graph/undirected_graph.h"
#include "stream/memory_stream.h"

int main() {
  using namespace densest;
  bench::Banner("Ablation: size-constrained densest subgraph (Algorithm 2)",
                "rho_{>=k} and passes vs k on flickr-sim, eps=0.5");
  auto csv = bench::OpenCsv("ablation_atleastk",
                            {"k", "rho", "size", "passes"});

  UndirectedGraph g = UndirectedGraph::FromEdgeList(MakeFlickrSim(1));
  std::printf("graph: |V|=%u |E|=%llu\n\n", g.num_nodes(),
              static_cast<unsigned long long>(g.num_edges()));

  Algorithm1Options base;
  base.epsilon = 0.5;
  base.record_trace = false;
  auto unconstrained = RunAlgorithm1(g, base);
  if (!unconstrained.ok()) return 1;
  std::printf("unconstrained (Algorithm 1): rho=%.3f |S|=%zu\n\n",
              unconstrained->density, unconstrained->nodes.size());

  // All k values of the grid run as one fused sweep over a PassEngine — one
  // physical scan per pass round feeds every still-active k.
  const NodeId kValues[] = {1u, 10u, 100u, 1000u, 10000u, 50000u, 100000u};
  std::vector<Algorithm2Options> grid;
  for (NodeId k : kValues) {
    Algorithm2Options opt;
    opt.min_size = k;
    opt.epsilon = 0.5;
    opt.record_trace = false;
    grid.push_back(opt);
  }
  UndirectedGraphStream stream(g);
  PassEngine engine;
  auto sweep = RunUndirectedRuns(engine, stream, grid);
  if (!sweep.ok()) return 1;

  std::printf("%8s %12s %10s %8s\n", "k", "rho_{>=k}", "|S|", "passes");
  for (size_t i = 0; i < grid.size(); ++i) {
    const UndirectedDensestResult& r = (*sweep)[i];
    std::printf("%8u %12.3f %10zu %8llu\n", kValues[i], r.density,
                r.nodes.size(), static_cast<unsigned long long>(r.passes));
    if (csv.ok()) {
      csv->AddRow({std::to_string(kValues[i]), CsvWriter::Num(r.density),
                   std::to_string(r.nodes.size()),
                   std::to_string(r.passes)});
    }
  }
  std::printf("\nfused k grid: %llu physical scans (run-by-run would cost "
              "%llu)\n",
              static_cast<unsigned long long>(engine.last_physical_passes()),
              static_cast<unsigned long long>(engine.last_logical_passes()));
  std::printf("\nExpected shape: rho_{>=k} decreases as k grows past the "
              "natural dense-core size; the returned size hugs k; passes "
              "shrink as k approaches n (Lemma 11).\n");
  return 0;
}
