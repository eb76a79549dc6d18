#include "resacc/serve/protocol.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "resacc/util/top_k.h"

namespace resacc {
namespace {

// Indexed by ProtocolVerb.
constexpr std::string_view kVerbWords[] = {
    "",       "query",  "topk",    "info",    "stats", "metrics",
    "addedge", "rmedge", "addnode", "compact", "quit"};

// Every piece formatted through here is well under the buffer.
__attribute__((format(printf, 2, 3))) void Appendf(std::string& out,
                                                   const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  out.append(buf, static_cast<std::size_t>(
                      std::clamp(n, 0, static_cast<int>(sizeof(buf)) - 1)));
}

std::vector<std::string_view> SplitWords(std::string_view line) {
  std::vector<std::string_view> words;
  auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  for (std::size_t i = 0;;) {
    while (i < line.size() && space(line[i])) ++i;
    if (i == line.size()) return words;
    const std::size_t begin = i;
    while (i < line.size() && !space(line[i])) ++i;
    words.push_back(line.substr(begin, i - begin));
  }
}

bool AllDigits(std::string_view word) {
  return !word.empty() && std::all_of(word.begin(), word.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
}

// Digits only, and at most `max`.
bool ParseDecimal(std::string_view word, std::uint64_t max,
                  std::uint64_t& out) {
  return AllDigits(word) &&
         std::from_chars(word.data(), word.data() + word.size(), out).ec ==
             std::errc() &&
         out <= max;
}

Status ParseNodeId(std::string_view word, const char* malformed,
                   NodeId& out) {
  std::uint64_t value = 0;
  if (!AllDigits(word)) return Status::InvalidArgument(malformed);
  if (!ParseDecimal(word, std::numeric_limits<NodeId>::max(), value)) {
    return Status::InvalidArgument("node id out of range: " +
                                   std::string(word));
  }
  out = static_cast<NodeId>(value);
  return Status::Ok();
}

// The leading number of `text` the way atof reads it; 0 when none.
double LeadingNumber(std::string_view text) {
  double value = 0.0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

void AppendQueryHead(std::string& out, NodeId source,
                     const QueryResponse& response) {
  Appendf(out, "ok %u hit=%d coalesced=%d degraded=%d", source,
          response.cache_hit ? 1 : 0, response.coalesced ? 1 : 0,
          response.degraded ? 1 : 0);
}

}  // namespace

StatusOr<ProtocolRequest> ParseRequest(std::string_view line) {
  const std::vector<std::string_view> words = SplitWords(line);
  ProtocolRequest request;
  if (words.empty()) return request;
  const auto* verb =
      std::find(std::begin(kVerbWords) + 1, std::end(kVerbWords), words[0]);
  if (verb == std::end(kVerbWords)) {
    return Status::InvalidArgument(
        "unknown command '" + std::string(words[0].substr(0, 31)) + "'");
  }
  request.verb = static_cast<ProtocolVerb>(verb - std::begin(kVerbWords));
  const auto word = [&words](std::size_t i) {
    return i < words.size() ? words[i] : std::string_view();
  };
  if (request.verb == ProtocolVerb::kAddEdge ||
      request.verb == ProtocolVerb::kRmEdge) {
    const char* malformed = "malformed mutation line";
    Status status = ParseNodeId(word(1), malformed, request.source);
    if (status.ok()) status = ParseNodeId(word(2), malformed, request.target);
    if (!status.ok()) return status;
    return request;
  }
  if (request.verb != ProtocolVerb::kQuery &&
      request.verb != ProtocolVerb::kTopK) {
    return request;  // a bare verb; later words are ignored
  }
  const bool topk = request.verb == ProtocolVerb::kTopK;
  const char* malformed = topk ? "malformed topk line" : "malformed query line";
  const Status source = ParseNodeId(word(1), malformed, request.source);
  if (!source.ok()) return source;
  // The word after the source is the count when it is a number.
  std::size_t next = 2;
  if (AllDigits(word(2))) {
    std::uint64_t k = 0;
    if (!ParseDecimal(word(2), std::numeric_limits<std::size_t>::max(), k) ||
        (topk && k == 0)) {
      return Status::InvalidArgument(malformed);
    }
    request.top_k = static_cast<std::size_t>(k);
    next = 3;
  }
  bool have_tenant = false;
  bool have_deadline = false;
  for (; next < words.size(); ++next) {
    const std::string_view w = words[next];
    if (!have_tenant && w.starts_with("tenant=")) {
      request.tenant = std::string(w.substr(7));
      have_tenant = true;
    } else if (!have_deadline && w.starts_with("deadline_ms=")) {
      // Clamped to ~31 years so the server's clock math cannot overflow.
      const double ms = std::min(LeadingNumber(w.substr(12)), 1e12);
      request.deadline_ms = ms > 0.0 ? std::round(ms * 1e3) / 1e3 : 0.0;
      have_deadline = true;
    } else if (w == "degraded=1") {
      request.degraded = true;
    }
  }
  return request;
}

std::string FormatRequest(const ProtocolRequest& request) {
  std::string line(kVerbWords[static_cast<std::size_t>(request.verb)]);
  if (request.verb == ProtocolVerb::kAddEdge ||
      request.verb == ProtocolVerb::kRmEdge) {
    Appendf(line, " %u %u", request.source, request.target);
  } else if (request.verb == ProtocolVerb::kQuery ||
             request.verb == ProtocolVerb::kTopK) {
    Appendf(line, " %u %zu", request.source, request.top_k);
    if (request.deadline_ms > 0.0) {
      Appendf(line, " deadline_ms=%.3f", request.deadline_ms);
    }
    if (request.degraded) line += " degraded=1";
    if (!request.tenant.empty()) line += " tenant=" + request.tenant;
  }
  return line;
}

ProtocolResponse ParseResponse(std::string_view line) {
  ProtocolResponse response;
  response.ok = line.starts_with("ok ");
  if (!response.ok) {
    response.deadline_expired =
        line.find("DEADLINE_EXCEEDED") != std::string_view::npos;
    response.rejected =
        line.find("RESOURCE_EXHAUSTED") != std::string_view::npos;
    return response;
  }
  // The key=value fields all come before the `top` list.
  for (const std::string_view word :
       SplitWords(line.substr(0, line.find(" top")))) {
    const std::size_t eq = word.find('=');
    if (eq == std::string_view::npos) continue;
    const std::string_view key = word.substr(0, eq);
    const std::string_view text = word.substr(eq + 1);
    const bool flag = LeadingNumber(text) > 0.5;
    std::uint64_t k = 0;
    if (key == "hit") response.hit = flag;
    if (key == "coalesced") response.coalesced = flag;
    if (key == "degraded") response.degraded = flag;
    if (key == "certified") response.certified = flag;
    if (key == "us") response.latency_seconds = LeadingNumber(text) / 1e6;
    if (key == "k" &&
        ParseDecimal(text, std::numeric_limits<std::size_t>::max(), k)) {
      response.k = static_cast<std::size_t>(k);
    }
  }
  return response;
}

std::string FormatInfoResponse(const ProtocolInfo& info) {
  std::string line;
  Appendf(line,
          "info nodes=%u edges=%llu workers=%llu epoch=%llu gen=%llu "
          "overlay=%llu",
          info.nodes, static_cast<unsigned long long>(info.edges),
          static_cast<unsigned long long>(info.workers),
          static_cast<unsigned long long>(info.epoch),
          static_cast<unsigned long long>(info.generation),
          static_cast<unsigned long long>(info.overlay_rows));
  return line;
}

StatusOr<ProtocolInfo> ParseInfoResponse(std::string_view line) {
  const std::vector<std::string_view> words = SplitWords(line);
  ProtocolInfo info;
  std::uint64_t nodes = UINT64_MAX;  // required
  const std::pair<std::string_view, std::uint64_t*> fields[] = {
      {"nodes=", &nodes},          {"edges=", &info.edges},
      {"workers=", &info.workers}, {"epoch=", &info.epoch},
      {"gen=", &info.generation},  {"overlay=", &info.overlay_rows}};
  bool valid = !words.empty() && words[0] == "info";
  for (std::size_t i = 1; valid && i < words.size(); ++i) {
    for (const auto& [key, value] : fields) {
      if (words[i].starts_with(key)) {
        valid = ParseDecimal(words[i].substr(key.size()), UINT64_MAX, *value);
      }
    }
  }
  if (!valid || nodes > std::numeric_limits<NodeId>::max()) {
    return Status::InvalidArgument("bad info reply: '" + std::string(line) +
                                   "'");
  }
  info.nodes = static_cast<NodeId>(nodes);
  return info;
}

std::string FormatQueryResponse(NodeId source, std::size_t top_k,
                                const QueryResponse& response) {
  if (!response.status.ok()) {
    return FormatErrorResponse(response.status.ToString());
  }
  std::string line;
  AppendQueryHead(line, source, response);
  Appendf(line, " eps=%.3g us=%.0f top", response.achieved_epsilon,
          response.latency_seconds * 1e6);
  if (response.scores != nullptr) {
    for (const auto& [node, score] : TopKPairs(*response.scores, top_k)) {
      Appendf(line, " %u:%.6e", node, score);
    }
  }
  return line;
}

std::string FormatTopKResponse(NodeId source, const QueryResponse& response) {
  if (!response.status.ok()) {
    return FormatErrorResponse(response.status.ToString());
  }
  if (response.topk == nullptr) {
    return FormatErrorResponse("top-k response missing payload");
  }
  const TopKResult& tk = *response.topk;
  std::string line;
  AppendQueryHead(line, source, response);
  Appendf(line, " certified=%d k=%zu eps=%.3g gap=%.3e us=%.0f top",
          tk.certified ? 1 : 0, tk.k, response.achieved_epsilon,
          tk.bound_gap, response.latency_seconds * 1e6);
  for (const TopKEntry& entry : tk.entries) {
    Appendf(line, " %u:%.6e:%.6e:%.6e", entry.node, entry.estimate,
            entry.lower, entry.upper);
  }
  return line;
}

std::string FormatMutationResponse(ProtocolVerb verb, NodeId u, NodeId v,
                                   bool applied, std::uint64_t epoch) {
  std::string line = "ok ";
  line += kVerbWords[static_cast<std::size_t>(verb)];
  Appendf(line, " %u %u applied=%d epoch=%llu", u, v, applied ? 1 : 0,
          static_cast<unsigned long long>(epoch));
  return line;
}

std::string FormatAddNodeResponse(NodeId id, std::uint64_t epoch) {
  std::string line;
  Appendf(line, "ok addnode %u epoch=%llu", id,
          static_cast<unsigned long long>(epoch));
  return line;
}

std::string FormatCompactResponse(const CompactionInfo& info) {
  std::string line;
  Appendf(line, "ok compact gen=%llu folded=%zu ms=%.1f",
          static_cast<unsigned long long>(info.generation), info.folded_rows,
          info.seconds * 1e3);
  return line;
}

std::string FormatStatsResponse(const ServerStats& stats) {
  return "stats " + stats.ToLine();
}

std::string FormatErrorResponse(std::string_view message) {
  return "err " + std::string(message);
}

LineRead ReadProtocolLine(std::FILE* in, std::string& line,
                          std::size_t max_bytes) {
  line.clear();
  bool read_any = false;
  bool too_long = false;
  char buf[512];
  while (std::fgets(buf, sizeof(buf), in) != nullptr) {
    read_any = true;
    std::size_t len = std::strlen(buf);
    const bool complete = len > 0 && buf[len - 1] == '\n';
    if (complete) --len;
    too_long = too_long || line.size() + len > max_bytes;
    if (!too_long) line.append(buf, len);
    if (complete) break;
  }
  if (!read_any) return LineRead::kEnd;
  if (too_long) {
    line.clear();
    return LineRead::kTooLong;
  }
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return LineRead::kLine;
}

}  // namespace resacc
