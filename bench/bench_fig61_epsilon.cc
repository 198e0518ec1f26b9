// Reproduces Figure 6.1: the effect of eps on (a) the approximation
// relative to the eps=0 run and (b) the number of passes, on the flickr
// and im stand-ins. The whole eps grid is one fused sweep over a PassEngine:
// every physical scan of the stream feeds all still-active eps runs, so
// the sweep costs max-over-eps(passes) scans instead of the sum.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/algorithm1.h"
#include "core/multi_run.h"
#include "gen/datasets.h"
#include "graph/undirected_graph.h"
#include "stream/memory_stream.h"

namespace {

using namespace densest;

void Sweep(const char* name, const UndirectedGraph& g, CsvWriter* csv) {
  std::vector<double> epsilons;
  for (double eps = 0.0; eps <= 2.51; eps += 0.25) epsilons.push_back(eps);

  Algorithm1Options base;
  base.record_trace = false;

  UndirectedGraphStream stream(g);
  PassEngine engine;
  auto runs = RunAlgorithm1EpsilonSweep(stream, base, epsilons, &engine);
  if (!runs.ok()) {
    std::printf("sweep failed: %s\n", runs.status().ToString().c_str());
    return;
  }

  // epsilons[0] == 0: the sweep's first run doubles as the baseline.
  const UndirectedDensestResult& baseline = (*runs)[0];
  std::printf("\n%s: rho=%.2f at eps=0 (%llu passes)\n", name,
              baseline.density,
              static_cast<unsigned long long>(baseline.passes));
  std::printf("%6s %18s %8s\n", "eps", "approx wrt eps=0", "passes");

  for (size_t i = 0; i < epsilons.size(); ++i) {
    const UndirectedDensestResult& r = (*runs)[i];
    double rel = r.density / baseline.density;
    std::printf("%6.2f %18.4f %8llu\n", epsilons[i], rel,
                static_cast<unsigned long long>(r.passes));
    if (csv != nullptr) {
      csv->AddRow({name, CsvWriter::Num(epsilons[i]), CsvWriter::Num(r.density),
                   CsvWriter::Num(rel), std::to_string(r.passes)});
    }
  }
  std::printf("fused: %llu physical scans for all %zu eps values "
              "(%llu run-by-run)\n",
              static_cast<unsigned long long>(engine.last_physical_passes()),
              epsilons.size(),
              static_cast<unsigned long long>(engine.last_logical_passes()));
}

}  // namespace

int main() {
  using namespace densest;
  bench::Banner("Figure 6.1",
                "eps vs approximation (relative to eps=0) and eps vs passes");
  auto csv = bench::OpenCsv(
      "fig61_epsilon", {"dataset", "eps", "rho", "rho_rel_eps0", "passes"});
  CsvWriter* csv_ptr = csv.ok() ? &csv.value() : nullptr;

  {
    UndirectedGraph flickr = UndirectedGraph::FromEdgeList(MakeFlickrSim(1));
    Sweep("FLICKR-sim", flickr, csv_ptr);
  }
  {
    UndirectedGraph im = UndirectedGraph::FromEdgeList(MakeImSim(2));
    Sweep("IM-sim", im, csv_ptr);
  }
  std::printf("\nPaper's observation to reproduce: eps in [0.5, 1] halves "
              "the passes while losing ~10%% density; quality is not "
              "monotone in eps.\n");
  return 0;
}
