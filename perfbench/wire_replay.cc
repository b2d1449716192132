#include "wire_replay.h"

#include <signal.h>
#include <stdlib.h>

#include <chrono>
#include <memory>

#include "plinda/net/client.h"
#include "plinda/net/supervisor.h"
#include "plinda/tuple.h"

namespace fpdm::perfbench {

namespace {

using plinda::A;
using plinda::F;
using plinda::MakeTemplate;
using plinda::MakeTuple;
using plinda::Tuple;
using plinda::ValueType;
using plinda::net::RemoteSpaceOptions;
using plinda::net::RemoteTupleSpace;
using CallStatus = RemoteTupleSpace::CallStatus;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The shape of a load-balanced E-tree task tuple (core/parallel.cc).
Tuple TaskTuple(int64_t n) {
  return MakeTuple("task", "item" + std::to_string(n % 97), int64_t{3},
                   int64_t{1});
}

// Runs the cycles against one started server; returns "" or an error.
std::string RunCycles(const std::string& endpoint, int cycles,
                      std::vector<double>* cycle_us) {
  RemoteSpaceOptions options;
  options.endpoint = endpoint;
  options.pid = 1;
  options.reconnect_timeout_s = 5.0;
  RemoteTupleSpace client(options);
  if (!client.Connect()) return "cannot connect: " + client.last_error();
  const plinda::Template task = MakeTemplate(
      A("task"), F(ValueType::kString), F(ValueType::kInt), F(ValueType::kInt));
  // Prime: one task in the space and an open transaction, as a worker has
  // between two tasks.
  Tuple got;
  if (client.Out(TaskTuple(0)) != CallStatus::kOk ||
      client.DeferXStart() != CallStatus::kOk ||
      client.In(task, true, true, &got) != CallStatus::kOk ||
      client.Out(TaskTuple(1)) != CallStatus::kOk) {
    return "prime failed: " + client.last_error();
  }
  const std::vector<Tuple> no_outs;
  for (int i = 0; i < cycles; ++i) {
    const Clock::time_point t0 = Clock::now();
    CallStatus status = client.DeferXCommit(no_outs, false, Tuple());
    if (status == CallStatus::kOk) status = client.DeferXStart();
    if (status == CallStatus::kOk) status = client.In(task, true, true, &got);
    if (status == CallStatus::kOk) status = client.Out(TaskTuple(i + 2));
    const Clock::time_point t1 = Clock::now();
    if (status != CallStatus::kOk) {
      return "cycle " + std::to_string(i) + " failed: " + client.last_error();
    }
    cycle_us->push_back(Seconds(t0, t1) * 1e6);
  }
  client.DeferXCommit(no_outs, false, Tuple());
  client.Bye();
  return "";
}

}  // namespace

WireReplayResult ReplayWorkerCycle(const std::string& state_root,
                                   int server_starts, int cycles_per_server) {
  WireReplayResult result;
  ::signal(SIGPIPE, SIG_IGN);
  for (int s = 0; s < server_starts; ++s) {
    std::string templ = state_root + "/replay-XXXXXX";
    if (::mkdtemp(templ.data()) == nullptr) {
      result.error = "mkdtemp failed under " + state_root;
      return result;
    }
    const std::string dir = templ;
    plinda::net::SpaceServerOptions server;
    server.endpoint = dir + "/space.0.sock";
    server.state_dir = dir + "/state.0";
    server.stderr_file = dir + "/server.0.stderr";
    server.threads = 1;

    const Clock::time_point t0 = Clock::now();
    const pid_t pid = plinda::net::ForkServerProcess(server);
    const bool up =
        pid > 0 && plinda::net::WaitForEndpoint(server.endpoint, 10.0);
    const Clock::time_point t1 = Clock::now();
    std::string error = up ? "" : "server failed to start";
    if (up) {
      result.server_start_s.push_back(Seconds(t0, t1));
      error = RunCycles(server.endpoint, cycles_per_server, &result.cycle_us);
      RemoteSpaceOptions control;
      control.endpoint = server.endpoint;
      control.reconnect_timeout_s = 2.0;
      RemoteTupleSpace ctl(control);
      if (ctl.Connect()) ctl.Shutdown();
    }
    plinda::net::ExitInfo info;
    if (pid > 0 && !plinda::net::WaitForExit(pid, 5.0, &info)) {
      plinda::net::KillProcess(pid);
      plinda::net::WaitForExit(pid, 5.0, &info);
    }
    plinda::net::RemoveTree(dir);
    if (!error.empty()) {
      result.error = error;
      return result;
    }
  }
  result.ok = true;
  return result;
}

}  // namespace fpdm::perfbench
