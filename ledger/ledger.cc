#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>

#include "resacc/graph/generators.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/workload/workload_spec.h"

namespace ledger {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

Distribution Summarize(const std::vector<double>& samples) {
  Distribution d;
  d.count = samples.size();
  if (samples.empty()) return d;
  d.min = *std::min_element(samples.begin(), samples.end());
  d.max = *std::max_element(samples.begin(), samples.end());
  d.q1 = Quantile(samples, 0.25);
  d.median = Quantile(samples, 0.5);
  d.q3 = Quantile(samples, 0.75);
  double inverse_sum = 0.0;
  for (double v : samples) inverse_sum += v > 0.0 ? 1.0 / v : INFINITY;
  d.harmonic_mean = static_cast<double>(samples.size()) / inverse_sum;
  return d;
}

// ---------------------------------------------------------------------------

Graph MakeGraph(GraphId id) {
  return id == GraphId::kA
             ? resacc::ChungLuPowerLaw(50000, 500000, 2.1, 7)
             : resacc::ChungLuPowerLaw(5000, 1000000, 2.1, 7);
}

const char* GraphFileName(GraphId id) {
  return id == GraphId::kA ? "graph_a.rsg" : "graph_b.rsg";
}

const std::vector<WorkloadDef>& AllWorkloads() {
  static const std::vector<WorkloadDef> workloads = [] {
    std::vector<WorkloadDef> all(3);
    all[0].name = "sparse-uniform";
    all[0].graph = GraphId::kA;
    all[0].outstanding = 2;
    all[0].warmup_ops = 8;

    all[1].name = "hub-batch";
    all[1].graph = GraphId::kB;
    all[1].outstanding = 32;
    all[1].max_batch = 16;
    all[1].batch_linger_us = 1000;
    all[1].cache = false;
    all[1].coalesce = false;
    all[1].warmup_ops = 64;

    all[2].name = "zipf-topk-churn";
    all[2].graph = GraphId::kA;
    all[2].transport = Transport::kProtocol;
    all[2].outstanding = 2;
    all[2].warmup_ops = 32;
    return all;
  }();
  return workloads;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

resacc::RwrConfig MakeConfig(const Graph& graph) {
  resacc::RwrConfig config = resacc::RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = resacc::DanglingPolicy::kAbsorb;
  return config;
}

resacc::ResAccOptions MakeOptions(const WorkloadDef& workload) {
  resacc::ResAccOptions options;
  options.hybrid.enable = true;
  if (workload.transport == Transport::kInProcess) options.num_hops = 1;
  return options;
}

// ---------------------------------------------------------------------------

namespace {

// Ops per stratified block (see OpStream).
constexpr std::size_t kStrata = 64;
// Ops per zipf-topk-churn block: 25% query, 70% topk, 5% mutation.
constexpr std::size_t kZipfBlock = 20;
// Which nodes are popular is a property of the data, not of the request
// sequence: the Zipf rank -> node map is fixed and the seed draws requests.
constexpr std::uint64_t kPopularitySeed = 0x20b0;

// The mutation ledger of the workload library, alone in its own stream.
resacc::WorkloadSpec ChurnSpec(std::uint64_t seed) {
  resacc::WorkloadSpec spec;
  spec.seed = seed;
  spec.picker = resacc::SourcePickerKind::kUniform;
  resacc::TenantSpec tenant;
  tenant.name = "churn";
  tenant.mix[static_cast<std::size_t>(resacc::OpClass::kMutation)] = 1.0;
  spec.tenants.push_back(tenant);
  return spec;
}

}  // namespace

OpStream::OpStream(const WorkloadDef& workload, const Graph& graph,
                   std::uint64_t seed)
    : graph_(graph), rng_(resacc::Rng(seed).Fork(0x1ed9e7)) {
  if (workload.transport == Transport::kProtocol) {
    popularity_ = std::make_unique<resacc::ZipfianSources>(
        graph.num_nodes(), 0.99, kPopularitySeed);
    churn_ = std::make_unique<resacc::TenantOpStream>(ChurnSpec(seed), 0,
                                                      graph.num_nodes());
  } else if (workload.name == "sparse-uniform") {
    distinct_.resize(graph.num_nodes());
    for (NodeId v = 0; v < graph.num_nodes(); ++v) distinct_[v] = v;
    cursor_.assign(kStrata, 0);
  }
}

resacc::WorkloadOp OpStream::Next() {
  resacc::WorkloadOp op;
  if (popularity_ != nullptr) {
    // Blocks of 20 ops: 5 queries and 14 top-k in shuffled order, then one
    // mutation, so writes are evenly spaced and the mix is exact.
    constexpr std::uint64_t kTopKOp = 0, kFullOp = 1, kMutationOp = 2;
    if (block_.empty()) {
      block_.assign(kZipfBlock - 1, kTopKOp);
      std::fill(block_.begin(), block_.begin() + 5, kFullOp);
      for (std::size_t i = block_.size(); i > 1; --i) {
        std::swap(block_[i - 1], block_[rng_.NextBounded(i)]);
      }
      block_.insert(block_.begin(), kMutationOp);  // popped last
    }
    const std::uint64_t kind = block_.back();
    block_.pop_back();
    if (kind == kMutationOp) return churn_->Next();
    op.cls = kind == kFullOp ? resacc::OpClass::kFull : resacc::OpClass::kTopK;
    op.top_k = op.cls == resacc::OpClass::kTopK ? kTopK : 0;
    op.source = popularity_->Next(rng_);
    return op;
  }
  // Stratified sampling: each block of kStrata ops draws once from each of
  // kStrata equal slices of the index space, in shuffled order, so every
  // block has the population's mix (ChungLu ids run from hubs to leaves).
  if (block_.empty()) {
    for (std::size_t s = 0; s < kStrata; ++s) block_.push_back(s);
    for (std::size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1], block_[rng_.NextBounded(i)]);
    }
  }
  const std::uint64_t stratum = block_.back();
  block_.pop_back();
  if (!distinct_.empty()) {
    // Uniform over nodes, distinct: a lazy Fisher-Yates within the stratum.
    const std::uint64_t n = distinct_.size();
    const std::uint64_t lo = stratum * n / kStrata;
    const std::uint64_t size = (stratum + 1) * n / kStrata - lo;
    const std::uint64_t i = lo + cursor_[stratum]++ % size;
    std::swap(distinct_[i], distinct_[i + rng_.NextBounded(lo + size - i)]);
    op.source = distinct_[i];
  } else {
    // Tail of a uniformly random edge: P(source = u) ~ out-degree(u).
    const std::uint64_t m = graph_.num_edges();
    const std::uint64_t lo = stratum * m / kStrata;
    const resacc::EdgeId edge =
        lo + rng_.NextBounded((stratum + 1) * m / kStrata - lo);
    const auto offsets = graph_.raw_out_offsets();
    op.source = static_cast<NodeId>(
        std::upper_bound(offsets.begin(), offsets.end(), edge) -
        offsets.begin() - 1);
  }
  return op;
}

std::uint64_t StreamHash(const WorkloadDef& workload, const Graph& graph,
                         std::uint64_t seed, std::size_t count) {
  OpStream stream(workload, graph, seed);
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < count; ++i) {
    const resacc::WorkloadOp op = stream.Next();
    const std::uint64_t fields[5] = {static_cast<std::uint64_t>(op.cls),
                                     op.source, op.target, op.remove ? 1u : 0u,
                                     op.top_k};
    hash = resacc::SnapshotChecksum(fields, sizeof(fields), hash);
  }
  return hash;
}

// ---------------------------------------------------------------------------

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::Begin(const std::string& name, int parent,
                   std::uint64_t request) {
  Span span;
  span.name = name;
  span.start = Now();
  span.end = span.start;
  span.parent = parent;
  span.request = request;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[static_cast<std::size_t>(id)].end = Now(); }

double SpanLog::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

double SpanLog::SelfSeconds(const std::string& name) const {
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name ==
                             name) {
      total -= s.end - s.start;
    }
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

std::string SpanLog::ToJson() const {
  std::string out = "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(i) + ",\"name\":" + JsonString(s.name) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) +
           ",\"start\":" + JsonNumber(s.start) +
           ",\"end\":" + JsonNumber(s.end) + "}";
  }
  return out + "]";
}

std::function<void(const char*)> PhaseTracer::Hook() {
  return [this](const char* phase) {
    ClosePhase();
    phase_ = log_->Begin(phase, query_, request_);
  };
}

void PhaseTracer::BeginQuery(std::uint64_t request) {
  request_ = request;
  query_ = log_->Begin("query", -1, request);
}

void PhaseTracer::EndQuery() {
  ClosePhase();
  log_->End(query_);
  query_ = -1;
}

void PhaseTracer::ClosePhase() {
  if (phase_ >= 0) log_->End(phase_);
  phase_ = -1;
}

PhaseSeconds PhaseSelfSeconds(const SpanLog& log) {
  PhaseSeconds out;
  out.hhop = log.SelfSeconds("hhop");
  out.omfwd = log.SelfSeconds("omfwd");
  out.remedy = log.SelfSeconds("remedy");
  out.dense = log.SelfSeconds("dense");
  out.topk = log.SelfSeconds("topk");
  return out;
}

// ---------------------------------------------------------------------------

std::map<std::string, std::string> HostBuildInfo() {
  std::map<std::string, std::string> info;
  info["hardware_concurrency"] =
      std::to_string(std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  info["cpu_model"] = "unknown";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        info["cpu_model"] = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  info["build_type"] = LEDGER_BUILD_TYPE;
#if defined(__clang__)
  info["compiler"] = "clang " __clang_version__;
#else
  info["compiler"] = "gcc " __VERSION__;
#endif
  return info;
}

std::uint64_t FileChecksum(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return resacc::SnapshotChecksum(bytes.data(), bytes.size());
}

double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace ledger
