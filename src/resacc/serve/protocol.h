#ifndef RESACC_SERVE_PROTOCOL_H_
#define RESACC_SERVE_PROTOCOL_H_

// The resacc_serve line protocol, defined once: the server
// (tools/resacc_serve.cc) and the client (workload/protocol_client.h)
// format and parse every line here. One request per line, one reply per
// request, replies in request order (flags print as 0|1):
//
//   query <source> [k]  ok <source> hit= coalesced= degraded= eps= us=
//                       top <node>:<score> ...  (full solve; the top k
//                       pairs of the vector, default 10)
//   topk <source> [k]   ok <source> hit= coalesced= degraded= certified=
//                       k= eps= gap= us=
//                       top <node>:<est>:<lower>:<upper> ...  (top-k mode,
//                       docs/QUERY_MODES.md; k >= 1, default 10)
//   info                info nodes= edges= workers= epoch= gen= overlay=
//   addedge|rmedge <u> <v>  ok addedge|rmedge <u> <v> applied= epoch=
//   addnode             ok addnode <id> epoch=
//   compact             ok compact gen= folded= ms=
//   stats               stats <key=value ...>
//   metrics             Prometheus text, then a line reading kMetricsEnd
//   quit                bye
//   anything else       err <message>
//
// eps= is the accuracy the answer meets: the configured epsilon for a
// complete answer, cache hits included; a degraded answer's weaker bound.
//
// `query` and `topk` take optional tokens after the positional fields,
// in any order (other words are ignored; of a repeated token the first
// counts): tenant=<name>, deadline_ms=<D> (kept to whole microseconds;
// not a positive number means none) and degraded=1. Node ids are decimal
// and must fit NodeId: anything else answers `err`, never a wrapped id.
// A blank line gets no reply; a line longer than kMaxRequestBytes gets
// one `err` and is discarded whole.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/serve/query_service.h"
#include "resacc/serve/server_stats.h"
#include "resacc/util/status.h"

namespace resacc {

inline constexpr std::size_t kMaxRequestBytes = 1024;
inline constexpr std::size_t kDefaultProtocolTopK = 10;
inline constexpr std::string_view kMetricsEnd = "# EOF";
inline constexpr std::string_view kQuitReply = "bye";

enum class ProtocolVerb {
  kBlank,  // an empty or all-whitespace line: no reply
  kQuery, kTopK, kInfo, kStats, kMetrics,
  kAddEdge, kRmEdge, kAddNode, kCompact, kQuit,
};

struct ProtocolRequest {
  ProtocolVerb verb = ProtocolVerb::kBlank;
  NodeId source = 0;  // query/topk source; addedge/rmedge edge source
  NodeId target = 0;  // addedge/rmedge edge target
  // query: pairs listed in the reply (0 lists none); topk: k.
  std::size_t top_k = kDefaultProtocolTopK;
  std::string tenant;  // the optional tokens: empty / 0 / false if absent
  double deadline_ms = 0.0;
  bool degraded = false;

  bool operator==(const ProtocolRequest&) const = default;
};

// One line (without its newline) to a request, or kInvalidArgument whose
// message is the text of the `err` reply. ParseRequest inverts
// FormatRequest.
StatusOr<ProtocolRequest> ParseRequest(std::string_view line);
std::string FormatRequest(const ProtocolRequest& request);

// What a client reads off a query, topk or mutation reply.
struct ProtocolResponse {
  bool ok = false;
  bool hit = false;
  bool coalesced = false;
  bool degraded = false;
  bool certified = false;
  // Non-OK classification (docs/QUERY_MODES.md outcomes): expiry and
  // backpressure are load-dependent behavior; anything else non-OK is a
  // genuine error.
  bool deadline_expired = false;
  bool rejected = false;
  std::size_t k = 0;             // topk replies
  double latency_seconds = 0.0;  // server-observed (us= field)
};
ProtocolResponse ParseResponse(std::string_view line);

struct ProtocolInfo {
  NodeId nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t workers = 0;
  std::uint64_t epoch = 0;
  std::uint64_t generation = 0;
  std::uint64_t overlay_rows = 0;

  bool operator==(const ProtocolInfo&) const = default;
};
std::string FormatInfoResponse(const ProtocolInfo& info);
// kInvalidArgument unless `line` is an info reply with a node count.
StatusOr<ProtocolInfo> ParseInfoResponse(std::string_view line);

// Reply lines, without their newline. A query reply lists `top_k` pairs;
// a non-OK response becomes an `err` line.
std::string FormatQueryResponse(NodeId source, std::size_t top_k,
                                const QueryResponse& response);
std::string FormatTopKResponse(NodeId source, const QueryResponse& response);
// `verb` is kAddEdge or kRmEdge.
std::string FormatMutationResponse(ProtocolVerb verb, NodeId u, NodeId v,
                                   bool applied, std::uint64_t epoch);
std::string FormatAddNodeResponse(NodeId id, std::uint64_t epoch);
std::string FormatCompactResponse(const CompactionInfo& info);
std::string FormatStatsResponse(const ServerStats& stats);
std::string FormatErrorResponse(std::string_view message);

// Reads one line from `in` into `line`, without its newline or a trailing
// '\r'. kTooLong: the line ran past `max_bytes`, was read to its end and
// dropped. kEnd: the input ended first.
enum class LineRead { kLine, kTooLong, kEnd };
LineRead ReadProtocolLine(std::FILE* in, std::string& line,
                          std::size_t max_bytes);

}  // namespace resacc

#endif  // RESACC_SERVE_PROTOCOL_H_
