#include "resacc/workload/protocol_client.h"

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <deque>
#include <utility>

#include "resacc/util/timer.h"

namespace resacc {

ProtocolClient::~ProtocolClient() { Shutdown(); }

Status ProtocolClient::Spawn(const std::string& command) {
  int to_child[2];
  int from_child[2];
  if (pipe(to_child) != 0 || pipe(from_child) != 0) {
    return Status::Internal("pipe() failed");
  }
  pid_ = fork();
  if (pid_ < 0) return Status::Internal("fork() failed");
  if (pid_ == 0) {
    dup2(to_child[0], STDIN_FILENO);
    dup2(from_child[1], STDOUT_FILENO);
    close(to_child[0]);
    close(to_child[1]);
    close(from_child[0]);
    close(from_child[1]);
    execl("/bin/sh", "sh", "-c", command.c_str(), static_cast<char*>(nullptr));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  to_server_ = fdopen(to_child[1], "w");
  from_server_ = fdopen(from_child[0], "r");
  if (to_server_ == nullptr || from_server_ == nullptr) {
    return Status::Internal("fdopen() failed");
  }
  return Status::Ok();
}

StatusOr<NodeId> ProtocolClient::Handshake() {
  ProtocolRequest info;
  info.verb = ProtocolVerb::kInfo;
  SendLine(FormatRequest(info));
  Flush();
  std::string line;
  if (!ReadLine(line)) return Status::Internal("bad handshake: no reply");
  const StatusOr<ProtocolInfo> parsed = ParseInfoResponse(line);
  if (!parsed.ok() || parsed.value().nodes == 0) {
    return Status::Internal("bad handshake: '" + line + "'");
  }
  return parsed.value().nodes;
}

std::string ProtocolClient::FormatOp(const WorkloadOp& op,
                                     const std::string& tenant) {
  ProtocolRequest request;
  request.source = op.source;
  switch (op.cls) {
    case OpClass::kMutation:
      request.verb =
          op.remove ? ProtocolVerb::kRmEdge : ProtocolVerb::kAddEdge;
      request.target = op.target;
      return FormatRequest(request);
    case OpClass::kTopK:
      request.verb = ProtocolVerb::kTopK;
      if (op.top_k > 0) request.top_k = op.top_k;
      break;
    case OpClass::kFull:
      request.verb = ProtocolVerb::kQuery;
      break;
    case OpClass::kDeadline:
    case OpClass::kDegraded:
      request.verb = ProtocolVerb::kQuery;
      request.deadline_ms = op.deadline_seconds * 1e3;
      request.degraded = op.cls == OpClass::kDegraded;
      break;
  }
  request.tenant = tenant;
  return FormatRequest(request);
}

void ProtocolClient::SendLine(const std::string& line) {
  std::fprintf(to_server_, "%s\n", line.c_str());
}

void ProtocolClient::Flush() { std::fflush(to_server_); }

bool ProtocolClient::ReadLine(std::string& out) {
  return ReadProtocolLine(from_server_, out, out.max_size()) !=
         LineRead::kEnd;
}

int ProtocolClient::Shutdown() {
  if (pid_ < 0) return 0;
  if (to_server_ != nullptr) {
    ProtocolRequest quit;
    quit.verb = ProtocolVerb::kQuit;
    SendLine(FormatRequest(quit));
    fclose(to_server_);
    to_server_ = nullptr;
  }
  if (from_server_ != nullptr) {
    // Drain whatever the server still writes (at least `bye`) so it never
    // blocks on a full pipe while exiting.
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), from_server_) != nullptr) {
    }
    fclose(from_server_);
    from_server_ = nullptr;
  }
  int wstatus = 0;
  waitpid(pid_, &wstatus, 0);
  pid_ = -1;
  return wstatus;
}

Status RunProtocolWorkload(const WorkloadSpec& spec, ProtocolClient& client,
                           NodeId num_nodes, std::size_t window,
                           WorkloadReport* report) {
  MergedOpStream stream(spec, num_nodes);
  if (window == 0) window = 1;
  WorkloadTally tally(spec);

  struct InFlight {
    WorkloadOp op;
    Timer timer;
  };
  std::deque<InFlight> in_flight;
  std::string line;

  auto settle_front = [&]() -> bool {
    if (!client.ReadLine(line)) return false;
    const WorkloadOp& op = in_flight.front().op;
    const ProtocolResponse resp = ParseResponse(line);
    OpOutcome outcome;
    if (resp.deadline_expired) {
      outcome.kind = OpOutcome::Kind::kDeadlineExceeded;
    } else if (resp.rejected) {
      outcome.kind = OpOutcome::Kind::kRejected;
    } else if (!resp.ok) {
      outcome.kind = OpOutcome::Kind::kError;
    }
    outcome.degraded = resp.degraded;
    outcome.cache_hit = resp.hit;
    outcome.coalesced = resp.coalesced;
    outcome.certified = op.cls == OpClass::kTopK && resp.k >= op.top_k;
    // Client-observed wall latency; the us= field would miss pipe time.
    outcome.latency_seconds = in_flight.front().timer.ElapsedSeconds();
    tally.Record(op.tenant, op.cls, outcome);
    in_flight.pop_front();
    return true;
  };

  Timer wall;
  while (wall.ElapsedSeconds() < spec.duration_seconds) {
    while (in_flight.size() < window) {
      WorkloadOp op = stream.Next();
      client.SendLine(
          ProtocolClient::FormatOp(op, spec.tenants[op.tenant].name));
      tally.CountSent(op.tenant, op.cls);
      in_flight.push_back(InFlight{op, Timer()});
    }
    client.Flush();
    if (!settle_front()) {
      return Status::Internal("server closed mid-run");
    }
  }
  client.Flush();
  while (!in_flight.empty()) {
    if (!settle_front()) {
      return Status::Internal("server closed during drain");
    }
  }
  WorkloadReport measured = tally.Report(wall.ElapsedSeconds());
  measured.spec_origin = std::move(report->spec_origin);
  *report = std::move(measured);
  return Status::Ok();
}

}  // namespace resacc
