#ifndef FPDM_PERFBENCH_WIRE_REPLAY_H_
#define FPDM_PERFBENCH_WIRE_REPLAY_H_

#include <string>
#include <vector>

namespace fpdm::perfbench {

struct WireReplayResult {
  bool ok = false;
  std::string error;
  /// ForkServerProcess -> WaitForEndpoint, seconds, one per server start.
  std::vector<double> server_start_s;
  /// Microseconds of one steady-state worker cycle, one per cycle.
  std::vector<double> cycle_us;
};

/// Replays a distributed worker's steady-state task cycle through
/// net::RemoteTupleSpace against forked SpaceServers configured like the
/// benchmark's kDistributed workloads (one server thread, unix socket,
/// default checkpoint interval). Each of `server_starts` servers is forked
/// under a fresh directory in `state_root`, serves `cycles_per_server`
/// cycles, and is shut down. One cycle is the four public calls
///   DeferXCommit(), DeferXStart(), In(task)   -- one round trip
///   Out(next task)                            -- one round trip
/// each timed; the task the In removes is the one the previous Out put, so
/// the space stays the same size from cycle to cycle.
WireReplayResult ReplayWorkerCycle(const std::string& state_root,
                                   int server_starts, int cycles_per_server);

}  // namespace fpdm::perfbench

#endif  // FPDM_PERFBENCH_WIRE_REPLAY_H_
