// The batch-workload harness: repeated set-up, a reference solve, timed
// solves for the run length, the traced-vs-untraced identity check, and the
// end-to-end metrics every batch workload reports. The throughputs divide by
// the process CPU time of a solve, which leaves out the time the host takes
// a vCPU away; harness.wall_edges_per_s reports the wall-clock rate. For a
// batch workload, apply_updates_per_cpu_s is the edge records the engine
// consumed (all passes, all fused runs) per CPU second.

#ifndef PERFBENCH_BATCH_H_
#define PERFBENCH_BATCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "graph/types.h"
#include "timed.h"

namespace perfbench {

/// The bit-exact identity of an answer: node sets, density bits and pass
/// count. Two solves of one input must agree on all of it.
struct Fingerprint {
  std::vector<densest::NodeId> nodes;    ///< S (or S then T for directed)
  uint64_t density_bits = 0;
  uint64_t passes = 0;
  bool operator==(const Fingerprint&) const = default;
};

uint64_t Bits(double x);

/// Per-layer numbers of one traced solve: name -> (value, unit).
using Layers = std::map<std::string, std::pair<double, std::string>>;

struct Solve {
  double wall_s = 0;
  double cpu_s = 0;
  Fingerprint answer;
  double density = 0;
  double upper_bound = 0;
  double records_applied = 0;  ///< edge records consumed by the engine
  Layers layers;               ///< filled by traced solves only
};

class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  /// Generates the inputs from the seed and builds the engines.
  virtual bool Setup(const Args& args) = 0;
  virtual uint64_t input_edges() const = 0;
  /// One solve; `traced` runs it through the timing decorators with the
  /// trace recorder on and fills Solve::layers.
  virtual bool Run(bool traced, Solve* out, Report& report) = 0;
  /// The reference solve the answer is checked against.
  virtual bool Reference(Solve* out, Report& report) = 0;
  /// Checks `answer` against `reference` and recounts it independently.
  virtual void Check(const Solve& answer, const Solve& reference,
                     Report& report) = 0;
  /// Adds per-layer numbers that need the whole run (e.g. thread scaling).
  virtual void Finish(const std::vector<Solve>& plain,
                      const Solve& reference, Report& report) {
    (void)plain, (void)reference, (void)report;
  }
};

void RunBatch(const std::function<std::unique_ptr<BatchWorkload>()>& make,
              const Args& args, Report& report);

/// Runs `fn` in a forked child and waits for it, so the memory the child
/// allocates (input generation) never counts toward this process's peak
/// RSS. Returns false if the child failed.
bool RunInChild(const std::function<bool()>& fn);

/// Writes `edges` as an unweighted binary edge file.
bool WriteEdges(const std::string& path, densest::NodeId n,
                std::vector<densest::Edge> edges);

/// Adds what `timed` recorded over one solve of `wall_s` seconds:
/// stream.read_s, the pass_engine pass windows (pass1_s, pass_s, self_s =
/// pass time outside stream reads, edges_scanned, scan_edges_per_s) and
/// harness.unattributed_s, the solve time outside every pass window.
void AddPassLayers(const TimedEdgeStream& timed, double wall_s, Layers& l);

/// The seconds spent in spans named `name`, or 0.
double SpanSeconds(const std::map<std::string, double>& spans,
                   const std::string& name);

/// Sums the trace spans recorded since the last drain: name -> seconds.
std::map<std::string, double> DrainSpanSeconds();

/// Starts the trace recorder when `traced`; stops it on destruction.
class TraceScope {
 public:
  explicit TraceScope(bool traced);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool traced_;
};

/// Engine threads of the timed solves. One: on a shared virtual machine a
/// multi-threaded pass waits at every hand-off for the slowest vCPU, and a
/// vCPU the host deschedules for a while stalls the whole pass; over the
/// same minutes, 3-worker stream-file solves ranged 0.41-0.87 s and 1-worker
/// ones 0.62-0.69 s. The reference solves run at the full budget below, so
/// every run still checks that the thread count does not change the answer.
constexpr size_t kSolveThreads = 1;
/// nproc: the thread budget of the reference solves.
size_t Threads();
/// Engine threads for a workload that reads a BinaryFileEdgeStream, whose
/// prefetch reader takes one thread of the budget.
size_t FileEngineThreads();

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_H_
