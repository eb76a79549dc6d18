#ifndef RESACC_WORKLOAD_PROTOCOL_CLIENT_H_
#define RESACC_WORKLOAD_PROTOCOL_CLIENT_H_

#include <cstdio>
#include <string>

#include <sys/types.h>

#include "resacc/serve/protocol.h"
#include "resacc/util/status.h"
#include "resacc/util/types.h"
#include "resacc/workload/driver.h"
#include "resacc/workload/op_stream.h"

namespace resacc {

// Client side of the resacc_serve stdin/stdout line protocol: spawns the
// server under /bin/sh (POSIX fork/exec, like the rest of the tooling),
// performs the `info` handshake, and exchanges lines whose format lives
// in serve/protocol.h. Not thread-safe; one client per pipe.
class ProtocolClient {
 public:
  ProtocolClient() = default;
  ~ProtocolClient();

  ProtocolClient(const ProtocolClient&) = delete;
  ProtocolClient& operator=(const ProtocolClient&) = delete;

  // Spawns `command` with our pipe as its stdin/stdout. kInternal on
  // fork/pipe failure.
  Status Spawn(const std::string& command);

  // Sends `info` and returns the server's node count. Also the liveness
  // check right after Spawn — a command that failed to exec surfaces here.
  StatusOr<NodeId> Handshake();

  // One protocol line for `op` (docs/WORKLOADS.md maps classes to verbs):
  //   kFull      query <src> <k> [tenant=T]
  //   kTopK      topk <src> <k> [tenant=T]
  //   kDeadline  query <src> <k> deadline_ms=<D> [tenant=T]
  //   kDegraded  query <src> <k> deadline_ms=<D> degraded=1 [tenant=T]
  //   kMutation  addedge <u> <v> | rmedge <u> <v>
  // `tenant` may be empty (no tenant token).
  static std::string FormatOp(const WorkloadOp& op,
                              const std::string& tenant);

  // serve/protocol.h's ParseResponse of an ok/err reply line.
  static ProtocolResponse ParseResponse(const std::string& line) {
    return resacc::ParseResponse(line);
  }

  // Raw line IO. SendLine appends the newline; Flush after a batch.
  // ReadLine reads a whole line however long it is.
  void SendLine(const std::string& line);
  void Flush();
  bool ReadLine(std::string& out);

  // Sends `quit`, closes the pipes, reaps the child. Returns the child's
  // wait status (0 when it exited cleanly). Idempotent.
  int Shutdown();

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  FILE* to_server_ = nullptr;
  FILE* from_server_ = nullptr;
};

// Replays the spec as one deterministic merged stream (MergedOpStream)
// over an already-handshaken client with `window` ops pipelined, for
// spec.duration_seconds of wall time, and fills `report` with the same
// per-class/per-tenant accounting as the in-process driver (latencies are
// client-observed wall times; queue-wait/compute split is unavailable
// through the pipe). kInternal when the server closes mid-run, so a lost
// reply fails the run. Used by bench_workload --serve-cmd.
Status RunProtocolWorkload(const WorkloadSpec& spec, ProtocolClient& client,
                           NodeId num_nodes, std::size_t window,
                           WorkloadReport* report);

}  // namespace resacc

#endif  // RESACC_WORKLOAD_PROTOCOL_CLIENT_H_
