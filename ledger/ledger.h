// The ledger benchmark's own building blocks, shared by the benchmark
// program (ledger_main.cc) and its tests (ledger_test.cc): exact order
// statistics, the three workload definitions and their seeded op streams,
// the span log the traced run attributes time with, and the record
// metadata. Everything here talks to ResAcc through its public headers
// only.
#ifndef RESACC_LEDGER_LEDGER_H_
#define RESACC_LEDGER_LEDGER_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "resacc/core/resacc_solver.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"
#include "resacc/serve/workload.h"
#include "resacc/util/rng.h"
#include "resacc/workload/op_stream.h"

namespace ledger {

using resacc::Graph;
using resacc::NodeId;

// ---------------------------------------------------------------------------
// Statistics over raw samples (never over bucketed histograms).

// The q-quantile (q in [0, 1]) by linear interpolation between the two
// closest order statistics: position q * (n - 1) of the sorted samples.
// 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);

// Graph500-style summary of a rate or time sample: min, quartiles, max and
// the harmonic mean (the right mean for rates over equal work units).
struct Distribution {
  std::size_t count = 0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  double harmonic_mean = 0.0;
};
Distribution Summarize(const std::vector<double>& samples);

// ---------------------------------------------------------------------------
// Graphs and workloads.

enum class GraphId { kA, kB };

// Graph A: ChungLuPowerLaw(50000, 500000, 2.1, seed 7), the paper-default
// sparse setting. Graph B: ChungLuPowerLaw(5000, 1000000, 2.1, seed 7),
// the hub-heavy serve-bench graph.
Graph MakeGraph(GraphId id);
const char* GraphFileName(GraphId id);

enum class Transport { kInProcess, kProtocol };

struct WorkloadDef {
  std::string name;
  GraphId graph = GraphId::kA;
  Transport transport = Transport::kInProcess;
  // Closed loop: requests kept outstanding by the one client thread (the
  // pipelining window over the protocol).
  std::size_t outstanding = 1;
  // In-process QueryService knobs (the server runs its defaults).
  std::size_t max_batch = 1;
  // How long a worker waits for stragglers to fill a batch; long enough
  // for the client to refill a returned batch, so batch sizes do not hinge
  // on thread timing.
  std::uint64_t batch_linger_us = 0;
  bool cache = true;
  bool coalesce = true;
  // Untimed ops run before the timed phase, taken from the same stream.
  std::size_t warmup_ops = 0;
};

// The three workloads; nullptr for an unknown name.
const WorkloadDef* FindWorkload(const std::string& name);
const std::vector<WorkloadDef>& AllWorkloads();

// Paper defaults (RwrConfig::ForGraphSize: alpha 0.2, eps 0.5, delta = p_f
// = 1/n) with absorbing sinks, the CLI convention.
resacc::RwrConfig MakeConfig(const Graph& graph);
// Solver options of a workload: hybrid selection on; h = 1 (the synthetic
// datasets' sim_hops) in process. resacc_serve has no hop flag, so the
// protocol workload keeps the server's h = 2 and the reference solver that
// checks it does too.
resacc::ResAccOptions MakeOptions(const WorkloadDef& workload);

// Flags of the protocol workload's server (after binary and graph).
inline constexpr const char* kServerFlags = "--workers=2 --hybrid";

// Top-k size of the `query`/`topk` verbs.
inline constexpr std::size_t kTopK = 10;

// Seeded op stream of a workload, a pure function of (workload, graph,
// seed):
//   sparse-uniform   full queries, uniform sources, all distinct
//   hub-batch        full queries, sources drawn in proportion to
//                    out-degree (the tail of a uniformly random edge)
//   zipf-topk-churn  70% topk / 25% query / 5% addedge|rmedge; Zipf 0.99
//                    sources over a fixed popularity ranking; mutations
//                    from the workload library's deterministic ledger
// The first two sample in stratified blocks (see Next), which keeps the
// cost mix of a run steady from seed to seed.
class OpStream {
 public:
  OpStream(const WorkloadDef& workload, const Graph& graph,
           std::uint64_t seed);

  resacc::WorkloadOp Next();

 private:
  const Graph& graph_;
  resacc::Rng rng_;
  // Rest of the current block, popped from the back: strata for the
  // stratified streams, op kinds for zipf-topk-churn.
  std::vector<std::uint64_t> block_;
  std::vector<NodeId> distinct_;         // sparse-uniform: lazy shuffle
  std::vector<std::uint64_t> cursor_;    // draws taken per stratum
  std::unique_ptr<resacc::ZipfianSources> popularity_;  // zipf-topk-churn
  std::unique_ptr<resacc::TenantOpStream> churn_;
};

// FNV-1a over the first `count` ops' fields: equal seeds give equal hashes.
std::uint64_t StreamHash(const WorkloadDef& workload, const Graph& graph,
                         std::uint64_t seed, std::size_t count);

// ---------------------------------------------------------------------------
// Spans: name, start, end and parent, kept in memory, written at the end.

class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // seconds since the log was created
    double end = 0.0;
    int parent = -1;     // index into spans(), -1 for a root
    std::uint64_t request = 0;
  };

  int Begin(const std::string& name, int parent = -1,
            std::uint64_t request = 0);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  // Sum over spans called `name` of their duration minus the part their
  // direct children cover.
  double SelfSeconds(const std::string& name) const;
  double TotalSeconds(const std::string& name) const;
  std::string ToJson() const;

 private:
  double Now() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

// Records a "query" span per traced solve with one child span per solver
// phase, opened by ResAccOptions::phase_hook when the phase starts and
// closed by the next phase or by the end of the query. Single-threaded:
// install Hook() on one solver and bracket each call with Begin/EndQuery.
class PhaseTracer {
 public:
  explicit PhaseTracer(SpanLog* log) : log_(log) {}

  std::function<void(const char*)> Hook();
  void BeginQuery(std::uint64_t request);
  void EndQuery();

 private:
  void ClosePhase();

  SpanLog* log_;
  int query_ = -1;
  int phase_ = -1;
  std::uint64_t request_ = 0;
};

// Self seconds of the solver phases of every traced query in `log`.
struct PhaseSeconds {
  double hhop = 0.0;
  double omfwd = 0.0;
  double remedy = 0.0;
  double dense = 0.0;
  double topk = 0.0;
  double Sum() const { return hhop + omfwd + remedy + dense + topk; }
};
PhaseSeconds PhaseSelfSeconds(const SpanLog& log);

// ---------------------------------------------------------------------------
// Record metadata and output.

// Host and build fields every record carries; records whose host or build
// fields differ are not comparable (ledger/compare.py refuses them).
std::map<std::string, std::string> HostBuildInfo();

// SnapshotChecksum over a file's bytes; 0 when unreadable.
std::uint64_t FileChecksum(const std::string& path);

// Peak resident set (VmHWM) of a process in MiB; "self" for this one.
double PeakRssMb(const std::string& pid = "self");

// Minimal JSON helpers.
std::string JsonString(const std::string& text);
std::string JsonNumber(double value);

}  // namespace ledger

#endif  // RESACC_LEDGER_LEDGER_H_
