// The resacc_serve line protocol (serve/protocol.h): request parsing and
// its error replies, the format/parse round trip of every verb and
// optional token, reply formatting and parsing, whole-line reads, a
// deterministic mutation fuzz of both parsers, and the server binary
// itself: over-long lines and out-of-range ids get exactly one reply
// each, cache hits report the epsilon of the answer they repeat, and an
// unknown option stops it with exit status 2.

#include <sys/wait.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/graph/graph_snapshot.h"
#include "resacc/serve/protocol.h"
#include "resacc/util/rng.h"
#include "resacc/workload/protocol_client.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

ProtocolRequest MustParse(const std::string& line) {
  const StatusOr<ProtocolRequest> parsed = ParseRequest(line);
  EXPECT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
  return parsed.ok() ? parsed.value() : ProtocolRequest{};
}

std::string ParseError(const std::string& line) {
  const StatusOr<ProtocolRequest> parsed = ParseRequest(line);
  EXPECT_FALSE(parsed.ok()) << line;
  if (parsed.ok()) return "";
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  return parsed.status().message();
}

TEST(ProtocolRequestTest, ParsesEveryVerb) {
  const ProtocolRequest query = MustParse("query 42");
  EXPECT_EQ(query.verb, ProtocolVerb::kQuery);
  EXPECT_EQ(query.source, 42u);
  EXPECT_EQ(query.top_k, kDefaultProtocolTopK);

  const ProtocolRequest topk = MustParse("topk 7 25");
  EXPECT_EQ(topk.verb, ProtocolVerb::kTopK);
  EXPECT_EQ(topk.source, 7u);
  EXPECT_EQ(topk.top_k, 25u);

  const ProtocolRequest add = MustParse("addedge 3 9");
  EXPECT_EQ(add.verb, ProtocolVerb::kAddEdge);
  EXPECT_EQ(add.source, 3u);
  EXPECT_EQ(add.target, 9u);
  EXPECT_EQ(MustParse("rmedge 9 3").verb, ProtocolVerb::kRmEdge);

  EXPECT_EQ(MustParse("info").verb, ProtocolVerb::kInfo);
  EXPECT_EQ(MustParse("stats").verb, ProtocolVerb::kStats);
  EXPECT_EQ(MustParse("metrics").verb, ProtocolVerb::kMetrics);
  EXPECT_EQ(MustParse("addnode").verb, ProtocolVerb::kAddNode);
  EXPECT_EQ(MustParse("compact").verb, ProtocolVerb::kCompact);
  EXPECT_EQ(MustParse("quit").verb, ProtocolVerb::kQuit);
  // Words after a bare verb are ignored, as are surrounding blanks.
  EXPECT_EQ(MustParse("  info please \r").verb, ProtocolVerb::kInfo);
  EXPECT_EQ(MustParse("").verb, ProtocolVerb::kBlank);
  EXPECT_EQ(MustParse(" \t\r").verb, ProtocolVerb::kBlank);
}

TEST(ProtocolRequestTest, OptionalTokensInAnyOrder) {
  const ProtocolRequest a =
      MustParse("query 5 3 degraded=1 tenant=gold deadline_ms=40");
  const ProtocolRequest b =
      MustParse("query 5 3 tenant=gold deadline_ms=40 degraded=1");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.top_k, 3u);
  EXPECT_EQ(a.tenant, "gold");
  EXPECT_EQ(a.deadline_ms, 40.0);
  EXPECT_TRUE(a.degraded);

  // A non-numeric word after the source is an option, not the count.
  const ProtocolRequest c = MustParse("topk 5 tenant=bronze");
  EXPECT_EQ(c.top_k, kDefaultProtocolTopK);
  EXPECT_EQ(c.tenant, "bronze");
  // Unknown words are ignored; of a repeated token the first counts.
  const ProtocolRequest d =
      MustParse("query 5 10 profile=1 tenant=a tenant=b degraded=0");
  EXPECT_EQ(d.tenant, "a");
  EXPECT_FALSE(d.degraded);
  // A query may list no pairs at all.
  EXPECT_EQ(MustParse("query 5 0").top_k, 0u);
}

TEST(ProtocolRequestTest, DeadlinesKeepWholeMicroseconds) {
  EXPECT_EQ(MustParse("query 1 deadline_ms=12.3456").deadline_ms, 12.346);
  EXPECT_EQ(MustParse("query 1 deadline_ms=0.0004").deadline_ms, 0.0);
  // Not a positive number: no deadline.
  EXPECT_EQ(MustParse("query 1 deadline_ms=abc").deadline_ms, 0.0);
  EXPECT_EQ(MustParse("query 1 deadline_ms=-5").deadline_ms, 0.0);
  EXPECT_EQ(MustParse("query 1 deadline_ms=nan").deadline_ms, 0.0);
  // Absurd values are clamped rather than overflowing the server's clock.
  EXPECT_EQ(MustParse("query 1 deadline_ms=1e300").deadline_ms, 1e12);
  EXPECT_EQ(MustParse("query 1 deadline_ms=inf").deadline_ms, 1e12);
}

TEST(ProtocolRequestTest, MalformedLinesGetTheirErrReply) {
  EXPECT_EQ(ParseError("query"), "malformed query line");
  EXPECT_EQ(ParseError("query abc"), "malformed query line");
  EXPECT_EQ(ParseError("topk"), "malformed topk line");
  EXPECT_EQ(ParseError("topk 5 0"), "malformed topk line");
  EXPECT_EQ(ParseError("addedge 1"), "malformed mutation line");
  EXPECT_EQ(ParseError("rmedge x 2"), "malformed mutation line");
  EXPECT_EQ(ParseError("bogus 1 2"), "unknown command 'bogus'");
  // The echoed command is cut at 31 characters.
  EXPECT_EQ(ParseError(std::string(300, 'a')),
            "unknown command '" + std::string(31, 'a') + "'");
  // A count past size_t is malformed, not wrapped.
  EXPECT_EQ(ParseError("query 5 99999999999999999999999"),
            "malformed query line");
}

// Node ids are checked, never wrapped: 2^32 + 1 used to reach the solver
// as node 1, and a mutation of two such ids used to apply to small ids.
TEST(ProtocolRequestTest, RejectsNodeIdsOutsideNodeIdRange) {
  EXPECT_EQ(MustParse("query 4294967295").source, 4294967295u);
  EXPECT_EQ(ParseError("query 4294967296 3"),
            "node id out of range: 4294967296");
  EXPECT_EQ(ParseError("query 4294967297 3"),
            "node id out of range: 4294967297");
  EXPECT_EQ(ParseError("topk 18446744073709551617 3"),
            "node id out of range: 18446744073709551617");
  EXPECT_EQ(ParseError("addedge 4294967298 4294967299"),
            "node id out of range: 4294967298");
  EXPECT_EQ(ParseError("rmedge 1 4294967296"),
            "node id out of range: 4294967296");
  // Signs, hex and trailing junk are not decimal ids.
  EXPECT_EQ(ParseError("query -1 3"), "malformed query line");
  EXPECT_EQ(ParseError("query +1 3"), "malformed query line");
  EXPECT_EQ(ParseError("query 0x10 3"), "malformed query line");
  EXPECT_EQ(ParseError("query 5abc 3"), "malformed query line");
  EXPECT_EQ(ParseError("addedge 1 2x"), "malformed mutation line");
}

// A random request of `verb`, covering every optional token.
ProtocolRequest RandomRequest(ProtocolVerb verb, Rng& rng) {
  ProtocolRequest request;
  request.verb = verb;
  auto random_id = [&rng] {
    // Small ids and ids at the top of the range alike.
    return rng.Bernoulli(0.5) ? static_cast<NodeId>(rng.NextBounded(1000))
                              : static_cast<NodeId>(rng.Next());
  };
  switch (verb) {
    case ProtocolVerb::kQuery:
    case ProtocolVerb::kTopK: {
      request.source = random_id();
      request.top_k = rng.NextBounded(500) +
                      (verb == ProtocolVerb::kTopK ? 1 : 0);
      if (rng.Bernoulli(0.5)) {
        static const char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789_-";
        const std::size_t length = 1 + rng.NextBounded(12);
        for (std::size_t i = 0; i < length; ++i) {
          request.tenant.push_back(
              kChars[rng.NextBounded(sizeof(kChars) - 1)]);
        }
      }
      if (rng.Bernoulli(0.5)) {
        request.deadline_ms =
            static_cast<double>(1 + rng.NextBounded(10000000)) / 1e3;
      }
      request.degraded = rng.Bernoulli(0.5);
      break;
    }
    case ProtocolVerb::kAddEdge:
    case ProtocolVerb::kRmEdge:
      request.source = random_id();
      request.target = random_id();
      break;
    default:
      break;
  }
  return request;
}

constexpr ProtocolVerb kAllVerbs[] = {
    ProtocolVerb::kBlank,   ProtocolVerb::kQuery,   ProtocolVerb::kTopK,
    ProtocolVerb::kInfo,    ProtocolVerb::kStats,   ProtocolVerb::kMetrics,
    ProtocolVerb::kAddEdge, ProtocolVerb::kRmEdge,  ProtocolVerb::kAddNode,
    ProtocolVerb::kCompact, ProtocolVerb::kQuit,
};

// Property: ParseRequest(FormatRequest(r)) == r for every verb and every
// combination of optional tokens.
TEST(ProtocolRequestTest, FormatThenParseRoundTrips) {
  Rng rng(0x9071);
  for (int iter = 0; iter < 200; ++iter) {
    for (ProtocolVerb verb : kAllVerbs) {
      const ProtocolRequest request = RandomRequest(verb, rng);
      const std::string line = FormatRequest(request);
      ASSERT_LE(line.size(), kMaxRequestBytes);
      EXPECT_EQ(MustParse(line), request) << line;
    }
  }
}

// The client's op lines are the wire bytes the workload harness has
// always sent.
TEST(ProtocolRequestTest, WorkloadOpsFormatAsBefore) {
  WorkloadOp op;
  op.source = 7;
  op.cls = OpClass::kFull;
  EXPECT_EQ(ProtocolClient::FormatOp(op, ""), "query 7 10");
  op.cls = OpClass::kTopK;
  op.top_k = 5;
  EXPECT_EQ(ProtocolClient::FormatOp(op, "gold"), "topk 7 5 tenant=gold");
  op.cls = OpClass::kDeadline;
  op.deadline_seconds = 0.04;
  EXPECT_EQ(ProtocolClient::FormatOp(op, "gold"),
            "query 7 10 deadline_ms=40.000 tenant=gold");
  op.cls = OpClass::kDegraded;
  EXPECT_EQ(ProtocolClient::FormatOp(op, ""),
            "query 7 10 deadline_ms=40.000 degraded=1");
  op.cls = OpClass::kMutation;
  op.target = 9;
  EXPECT_EQ(ProtocolClient::FormatOp(op, "gold"), "addedge 7 9");
  op.remove = true;
  EXPECT_EQ(ProtocolClient::FormatOp(op, "gold"), "rmedge 7 9");
}

QueryResponse OkResponse(bool hit, bool coalesced, bool degraded) {
  QueryResponse response;
  response.cache_hit = hit;
  response.coalesced = coalesced;
  response.degraded = degraded;
  response.achieved_epsilon = 0.5;
  response.latency_seconds = 0.001234;
  return response;
}

TEST(ProtocolResponseTest, QueryReplyRoundTrips) {
  QueryResponse response = OkResponse(true, false, true);
  response.scores = std::make_shared<const std::vector<Score>>(
      std::vector<Score>{0.1, 0.5, 0.2, 0.2});
  const std::string line = FormatQueryResponse(3, 3, response);
  EXPECT_EQ(line,
            "ok 3 hit=1 coalesced=0 degraded=1 eps=0.5 us=1234 top "
            "1:5.000000e-01 2:2.000000e-01 3:2.000000e-01");
  const ProtocolResponse parsed = ParseResponse(line);
  EXPECT_TRUE(parsed.ok);
  EXPECT_TRUE(parsed.hit);
  EXPECT_FALSE(parsed.coalesced);
  EXPECT_TRUE(parsed.degraded);
  EXPECT_FALSE(parsed.certified);
  EXPECT_EQ(parsed.k, 0u);
  EXPECT_DOUBLE_EQ(parsed.latency_seconds, 1234e-6);
  // Zero pairs requested: the list is empty.
  EXPECT_EQ(FormatQueryResponse(3, 0, response).substr(line.find(" top")),
            " top");
}

TEST(ProtocolResponseTest, TopKReplyRoundTripsAtAnyLength) {
  auto topk = std::make_shared<TopKResult>();
  topk->certified = true;
  topk->k = 500;
  topk->bound_gap = 1e-4;
  for (NodeId v = 0; v < 500; ++v) {
    topk->entries.push_back({v, 1.0 / (v + 1), 0.9 / (v + 1), 1.1 / (v + 1)});
  }
  QueryResponse response = OkResponse(false, true, false);
  response.topk = topk;
  const std::string line = FormatTopKResponse(12, response);
  EXPECT_EQ(line.rfind("ok 12 hit=0 coalesced=1 degraded=0 "
                       "certified=1 k=500 eps=0.5 gap=1.000e-04 us=1234 top "
                       "0:1.000000e+00:9.000000e-01:1.100000e+00 ",
                       0),
            0u);
  EXPECT_GT(line.size(), 4096u);
  const ProtocolResponse parsed = ParseResponse(line);
  EXPECT_TRUE(parsed.ok);
  EXPECT_TRUE(parsed.coalesced);
  EXPECT_FALSE(parsed.degraded);
  EXPECT_TRUE(parsed.certified);
  EXPECT_EQ(parsed.k, 500u);

  QueryResponse missing = OkResponse(false, false, false);
  EXPECT_EQ(FormatTopKResponse(12, missing),
            "err top-k response missing payload");
}

TEST(ProtocolResponseTest, ErrorRepliesAreClassified) {
  QueryResponse expired;
  expired.status = Status::DeadlineExceeded("deadline passed in queue");
  const std::string line = FormatQueryResponse(1, 10, expired);
  EXPECT_EQ(line, "err DEADLINE_EXCEEDED: deadline passed in queue");
  ProtocolResponse parsed = ParseResponse(line);
  EXPECT_FALSE(parsed.ok);
  EXPECT_TRUE(parsed.deadline_expired);
  EXPECT_FALSE(parsed.rejected);

  QueryResponse full;
  full.status = Status::ResourceExhausted("queue full");
  parsed = ParseResponse(FormatTopKResponse(1, full));
  EXPECT_FALSE(parsed.ok);
  EXPECT_TRUE(parsed.rejected);

  parsed = ParseResponse(FormatErrorResponse("malformed query line"));
  EXPECT_FALSE(parsed.ok);
  EXPECT_FALSE(parsed.deadline_expired);
  EXPECT_FALSE(parsed.rejected);
}

TEST(ProtocolResponseTest, MutationAndInfoReplies) {
  EXPECT_EQ(FormatMutationResponse(ProtocolVerb::kAddEdge, 1, 2, true, 3),
            "ok addedge 1 2 applied=1 epoch=3");
  EXPECT_EQ(FormatMutationResponse(ProtocolVerb::kRmEdge, 1, 2, false, 3),
            "ok rmedge 1 2 applied=0 epoch=3");
  EXPECT_TRUE(ParseResponse("ok rmedge 1 2 applied=0 epoch=3").ok);
  EXPECT_EQ(FormatAddNodeResponse(500, 4), "ok addnode 500 epoch=4");
  CompactionInfo compaction;
  compaction.generation = 2;
  compaction.folded_rows = 17;
  compaction.seconds = 0.01234;
  EXPECT_EQ(FormatCompactResponse(compaction),
            "ok compact gen=2 folded=17 ms=12.3");

  ProtocolInfo info;
  info.nodes = 4294967295u;
  info.edges = 1ull << 40;
  info.workers = 4;
  info.epoch = 9;
  info.generation = 2;
  info.overlay_rows = 31;
  const std::string line = FormatInfoResponse(info);
  EXPECT_EQ(line,
            "info nodes=4294967295 edges=1099511627776 workers=4 epoch=9 "
            "gen=2 overlay=31");
  const StatusOr<ProtocolInfo> parsed = ParseInfoResponse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), info);
  EXPECT_FALSE(ParseInfoResponse("ok 1 hit=0").ok());
  EXPECT_FALSE(ParseInfoResponse("info edges=3").ok());
  EXPECT_FALSE(ParseInfoResponse("info nodes=4294967296").ok());
  EXPECT_FALSE(ParseInfoResponse("info nodes=-1").ok());
}

// Deterministic fuzz: random edits of valid request and reply lines
// either parse or fail with an InvalidArgument reply text — never crash —
// and every request that parses survives a format/parse round trip.
TEST(ProtocolFuzzTest, MutatedLinesParseOrFailCleanly) {
  const std::vector<std::string> requests = {
      "query 42 10 tenant=gold deadline_ms=40.000 degraded=1",
      "topk 4294967295 25 tenant=bronze",
      "addedge 12 4000000000",
      "rmedge 7 8",
      "info",
      "compact",
  };
  const std::vector<std::string> replies = {
      "ok 3 hit=1 coalesced=0 degraded=1 eps=0.5 us=1234 top "
      "1:5.000000e-01 2:2.000000e-01",
      "ok 12 hit=0 coalesced=1 degraded=0 certified=1 k=2 eps=0.5 "
      "gap=1.000e-04 us=77 top 0:1.0e+00:9.0e-01:1.1e+00 "
      "1:5.0e-01:4.0e-01:6.0e-01",
      "err DEADLINE_EXCEEDED: deadline passed",
      "ok addedge 1 2 applied=1 epoch=3",
      "info nodes=4 edges=5 workers=1 epoch=0 gen=0 overlay=0",
  };
  Rng rng(0xf0220);
  auto mutate = [&rng](std::string text) {
    const int edits = 1 + static_cast<int>(rng.NextBounded(4));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.NextBounded(text.size() + 1);
      switch (rng.NextBounded(3)) {
        case 0:
          if (pos < text.size()) {
            text[pos] = static_cast<char>(' ' + rng.NextBounded(95));
          }
          break;
        case 1:
          text.erase(std::min(pos, text.size()), 1 + rng.NextBounded(5));
          break;
        default:
          text.insert(pos, 1, static_cast<char>(' ' + rng.NextBounded(95)));
          break;
      }
    }
    return text;
  };
  for (int iter = 0; iter < 500; ++iter) {
    const std::string request =
        mutate(requests[rng.NextBounded(requests.size())]);
    const StatusOr<ProtocolRequest> parsed = ParseRequest(request);
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(parsed.status().message().empty()) << request;
    } else {
      const StatusOr<ProtocolRequest> again =
          ParseRequest(FormatRequest(parsed.value()));
      ASSERT_TRUE(again.ok()) << request;
      EXPECT_EQ(again.value(), parsed.value()) << request;
    }

    const std::string reply = mutate(replies[rng.NextBounded(replies.size())]);
    const ProtocolResponse response = ParseResponse(reply);
    EXPECT_EQ(response.ok, reply.rfind("ok ", 0) == 0) << reply;
    if (!response.ok) {
      EXPECT_FALSE(response.hit || response.coalesced || response.certified)
          << reply;
    }
    const StatusOr<ProtocolInfo> info = ParseInfoResponse(reply);
    if (info.ok()) {
      const StatusOr<ProtocolInfo> again =
          ParseInfoResponse(FormatInfoResponse(info.value()));
      ASSERT_TRUE(again.ok()) << reply;
      EXPECT_EQ(again.value(), info.value()) << reply;
    }
  }
}

// Reads through a temporary file holding `text`.
std::vector<std::pair<LineRead, std::string>> ReadAll(const std::string& text,
                                                      std::size_t max_bytes) {
  std::FILE* file = std::tmpfile();
  EXPECT_NE(file, nullptr);
  std::vector<std::pair<LineRead, std::string>> out;
  if (file == nullptr) return out;
  std::fwrite(text.data(), 1, text.size(), file);
  std::rewind(file);
  std::string line;
  for (;;) {
    const LineRead read = ReadProtocolLine(file, line, max_bytes);
    out.emplace_back(read, line);
    if (read == LineRead::kEnd) break;
  }
  std::fclose(file);
  return out;
}

TEST(ProtocolLineTest, ReadsWholeLinesAndDropsOverlongOnes) {
  const std::string long_ok = "query 1 3 tenant=" + std::string(300, 'a');
  const std::string too_long(5000, 'b');
  const auto lines = ReadAll(
      long_ok + "\n" + too_long + "\ninfo\r\n\nquit", kMaxRequestBytes);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], std::make_pair(LineRead::kLine, long_ok));
  EXPECT_EQ(lines[1], std::make_pair(LineRead::kTooLong, std::string()));
  EXPECT_EQ(lines[2], std::make_pair(LineRead::kLine, std::string("info")));
  EXPECT_EQ(lines[3], std::make_pair(LineRead::kLine, std::string()));
  // The last line needs no newline.
  EXPECT_EQ(lines[4], std::make_pair(LineRead::kLine, std::string("quit")));
  EXPECT_EQ(lines[5].first, LineRead::kEnd);

  // Without a cap (the client's reads) any length comes back whole.
  const std::string huge(100000, 'c');
  const auto unbounded = ReadAll(huge + "\n", std::string().max_size());
  ASSERT_EQ(unbounded.size(), 2u);
  EXPECT_EQ(unbounded[0], std::make_pair(LineRead::kLine, huge));
}

// A snapshot of the Figure 1 graph under a per-test temporary name.
std::string SaveTestGraph() {
  const std::string path = ::testing::TempDir() + "/protocol_test_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name() +
                           ".rsg";
  EXPECT_TRUE(SaveSnapshot(testing::Figure1Graph(), path).ok());
  return path;
}

// The word of `line` that starts with `key`, or "" when there is none.
std::string Field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key);
  if (at == std::string::npos) return "";
  const std::size_t end = line.find(' ', at + 1);
  return line.substr(at + 1, end == std::string::npos ? std::string::npos
                                                      : end - at - 1);
}

// The real server through a pipe: every request line gets exactly one
// reply, so replies stay aligned by position.
class ServerProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_path_ = SaveTestGraph();
    ASSERT_TRUE(client_
                    .Spawn(std::string("exec '") + RESACC_SERVE_BINARY +
                           "' '" + graph_path_ + "' --workers=1 2>/dev/null")
                    .ok());
    const StatusOr<NodeId> nodes = client_.Handshake();
    ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
  }
  void TearDown() override {
    EXPECT_EQ(client_.Shutdown(), 0);
    std::remove(graph_path_.c_str());
  }

  // Sends `lines`, then `info`, and returns every reply up to the info
  // reply (exclusive).
  std::vector<std::string> Exchange(const std::vector<std::string>& lines) {
    for (const std::string& line : lines) client_.SendLine(line);
    client_.SendLine("info");
    client_.Flush();
    std::vector<std::string> replies;
    std::string reply;
    while (client_.ReadLine(reply) && reply.rfind("info ", 0) != 0) {
      replies.push_back(reply);
    }
    return replies;
  }

  std::string graph_path_;
  ProtocolClient client_;
};

TEST_F(ServerProtocolTest, LongLinesGetExactlyOneReply) {
  const std::vector<std::string> replies = Exchange({
      "query 1 3 tenant=" + std::string(300, 'a'),
      "topk 1 3 " + std::string(2000, 'x'),
      "query 2 3",
  });
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0].rfind("ok 1 ", 0), 0u) << replies[0];
  EXPECT_EQ(replies[1], "err request line longer than 1024 bytes");
  EXPECT_EQ(replies[2].rfind("ok 2 ", 0), 0u) << replies[2];
}

TEST_F(ServerProtocolTest, OutOfRangeIdsAreRejectedNotWrapped) {
  const std::vector<std::string> replies = Exchange({
      "query 4294967297 3",
      "addedge 4294967298 4294967299",
      "query x",
  });
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[0], "err node id out of range: 4294967297");
  EXPECT_EQ(replies[1], "err node id out of range: 4294967298");
  EXPECT_EQ(replies[2], "err malformed query line");
  // No mutation was applied: the epoch is still 0.
  client_.SendLine("info");
  client_.Flush();
  std::string info;
  ASSERT_TRUE(client_.ReadLine(info));
  const StatusOr<ProtocolInfo> parsed = ParseInfoResponse(info);
  ASSERT_TRUE(parsed.ok()) << info;
  EXPECT_EQ(parsed.value().epoch, 0u);
}

TEST_F(ServerProtocolTest, CacheHitRepliesCarryTheMissReplysEpsilon) {
  // Each exchange waits for its replies, so the first answer is cached
  // before the repeats arrive: they are hits, not coalesced followers.
  const std::vector<std::string> misses = Exchange({"query 1 3", "topk 2 3"});
  const std::vector<std::string> hits =
      Exchange({"query 1 3", "topk 2 3", "topk 1 3"});
  ASSERT_EQ(misses.size(), 2u);
  ASSERT_EQ(hits.size(), 3u);
  for (const std::string& miss : misses) {
    EXPECT_EQ(Field(miss, "hit="), "hit=0") << miss;
  }
  for (const std::string& hit : hits) {
    EXPECT_EQ(Field(hit, "hit="), "hit=1") << hit;
  }
  EXPECT_EQ(Field(misses[0], "eps="), "eps=0.5") << misses[0];
  // A full hit, a top-k hit on a top-k entry, and a top-k hit bridged from
  // the cached full vector.
  EXPECT_EQ(Field(hits[0], "eps="), Field(misses[0], "eps=")) << hits[0];
  EXPECT_EQ(Field(hits[1], "eps="), Field(misses[1], "eps=")) << hits[1];
  EXPECT_EQ(Field(hits[2], "eps="), Field(misses[0], "eps=")) << hits[2];
  // Everything after the flags repeats the miss byte for byte, save us=.
  const auto tail = [](const std::string& line) {
    return line.substr(line.find(" top"));
  };
  EXPECT_EQ(tail(hits[0]), tail(misses[0]));
  EXPECT_EQ(tail(hits[1]), tail(misses[1]));
}

// An option the server does not read stops it before it serves, and each
// unread option is named: here a flag the server does not have and a
// typo.
TEST(ServerOptionsTest, UnreadOptionsExitWithStatus2) {
  const std::string graph_path = SaveTestGraph();
  const std::string command = std::string("'") + RESACC_SERVE_BINARY +
                              "' '" + graph_path +
                              "' --workers=1 --cache-ttl=1 --bogus-flag=1 "
                              "</dev/null 2>&1";
  std::FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  std::remove(graph_path.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("--cache-ttl"), std::string::npos) << output;
  EXPECT_NE(output.find("--bogus-flag"), std::string::npos) << output;
  EXPECT_EQ(output.find("unknown option --workers"), std::string::npos)
      << output;
  EXPECT_EQ(output.find("ready"), std::string::npos) << output;
}

}  // namespace
}  // namespace resacc
