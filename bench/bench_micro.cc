// Micro-benchmarks (google-benchmark) of the performance-critical
// primitives: tuple-space matching, the tuple codec and checkpoints, the
// wire protocol (unbatched vs batched round trips against a live server
// process, at both WAL sync modes) and server checkpoints of a growing
// space, GST construction, the motif-matching DP, the optimal sub-K-ary
// split DP, one Apriori pass, and tree edit distance with cuts.

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "arm/apriori.h"
#include "arm/problem.h"
#include "classify/split.h"
#include "data/benchmarks.h"
#include "plinda/net/client.h"
#include "plinda/net/server.h"
#include "plinda/net/supervisor.h"
#include "plinda/tuple_space.h"
#include "seqmine/generator.h"
#include "seqmine/motif.h"
#include "seqmine/suffix_tree.h"
#include "treemine/edit_distance.h"
#include "treemine/problem.h"
#include "util/random.h"

namespace {

using namespace fpdm;

void BM_TupleSpaceOutIn(benchmark::State& state) {
  using namespace plinda;
  for (auto _ : state) {
    TupleSpace space;
    for (int i = 0; i < 1000; ++i) space.Out(MakeTuple("task", i));
    Tuple t;
    Template q = MakeTemplate(A("task"), F(ValueType::kInt));
    while (space.TryIn(q, &t)) {
    }
    benchmark::DoNotOptimize(space.size());
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_TupleSpaceOutIn);

// Encode + decode of the two tuple shapes that make up most motif-dist
// frames and WAL records: ("cost", key, cost) and ("task", key, length,
// mode). Items are tuples, each encoded once and decoded once.
void BM_TupleCodec(benchmark::State& state) {
  using namespace plinda;
  const Tuple cost = MakeTuple("cost", "RKDLEGA", 0.7310585786300049);
  const Tuple task = MakeTuple("task", "RKDLEGA", int64_t{7}, int64_t{1});
  std::string buf;
  Tuple back;
  for (auto _ : state) {
    buf.clear();
    SerializeTuple(cost, &buf);
    SerializeTuple(task, &buf);
    size_t pos = 0;
    bool ok = DeserializeTuple(buf, &pos, &back);
    ok = DeserializeTuple(buf, &pos, &back) && ok;
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_TupleCodec);

// One TupleSpace::Checkpoint() of N motif-dist-shaped tuples, half "cost"
// and half "task" (1300 is about motif-dist's tasks per job, each of which
// leaves a "cost" tuple in the space).
void BM_TupleSpaceCheckpoint(benchmark::State& state) {
  using namespace plinda;
  TupleSpace space;
  for (int64_t i = 0; i < state.range(0); ++i) {
    const std::string key = "RKDLEGA" + std::to_string(i);
    if (i % 2 == 0) {
      space.Out(MakeTuple("cost", key, 1.0 / static_cast<double>(i + 3)));
    } else {
      space.Out(MakeTuple("task", key, int64_t{8}, int64_t{1}));
    }
  }
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string checkpoint = space.Checkpoint();
    bytes = checkpoint.size();
    benchmark::DoNotOptimize(checkpoint.data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TupleSpaceCheckpoint)->Arg(1300);

void BM_TupleSpaceMatchMiss(benchmark::State& state) {
  using namespace plinda;
  TupleSpace space;
  for (int i = 0; i < 1000; ++i) space.Out(MakeTuple("task", i));
  Template q = MakeTemplate(A("other"), F(ValueType::kInt));
  for (auto _ : state) {
    Tuple t;
    benchmark::DoNotOptimize(space.TryRd(q, &t));
  }
}
BENCHMARK(BM_TupleSpaceMatchMiss);

// Wire-protocol round-trip amortization: 256 outs + 256 takes per
// iteration against a live tuple-space server process over a Unix socket.
// The unbatched variant pays one RPC round trip per operation (512 per
// iteration, the PR-3 behavior); the batched variant coalesces the same
// 512 sub-ops into two kBatch frames flushed in one round trip each. The
// items/s ratio between the two rows is the headline batching win.
/// The transport axis of the wire benches: a Unix-domain socket, or
/// loopback TCP (port 0, the server publishes the kernel-assigned port
/// through the resolved-endpoint file).
enum class WireTransport { kUnix, kTcp };

/// Row-name suffix for the server's WAL durability contract
/// (SpaceServerOptions::wal_sync): "sync:process" survives SIGKILL of the
/// server, "sync:host" adds one fdatasync per serve-loop pass.
std::string SyncSuffix(bool wal_sync) {
  return wal_sync ? "/sync:host" : "/sync:process";
}

class WireBench {
 public:
  WireBench(WireTransport transport, bool wal_sync) {
    dir_ = plinda::net::MakeStateDir();
    const bool tcp = transport == WireTransport::kTcp;
    std::string endpoint = dir_ + "/space.sock";
    sopts_.endpoint = tcp ? "tcp:127.0.0.1:0" : endpoint;
    if (tcp) sopts_.resolved_endpoint_file = dir_ + "/endpoint";
    sopts_.state_dir = dir_ + "/state";
    sopts_.wal_sync = wal_sync;
    server_pid_ = plinda::net::ForkServerProcess(sopts_);
    if (tcp) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      endpoint.clear();
      while (endpoint.empty() &&
             std::chrono::steady_clock::now() < deadline) {
        std::ifstream in(sopts_.resolved_endpoint_file);
        std::getline(in, endpoint);
        if (endpoint.empty()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }
      if (endpoint.empty()) return;  // ok_ stays false
      plinda::net::WaitForEndpoint(endpoint, 10.0);
    } else {
      plinda::net::WaitForEndpoint(endpoint, 10.0);
    }
    plinda::net::RemoteSpaceOptions copts;
    copts.endpoint = endpoint;
    copts.pid = 1;
    client_ = std::make_unique<plinda::net::RemoteTupleSpace>(copts);
    ok_ = client_->Connect();
  }

  ~WireBench() {
    if (client_ != nullptr) client_->Bye();
    if (server_pid_ > 0) {
      plinda::net::KillProcess(server_pid_);
      plinda::net::ExitInfo info;
      plinda::net::WaitForExit(server_pid_, 5.0, &info);
    }
    plinda::net::RemoveTree(dir_);
  }

  bool ok() const { return ok_; }
  plinda::net::RemoteTupleSpace& client() { return *client_; }

  void FillCounters(benchmark::State& state) {
    state.counters["rpc_round_trips"] =
        static_cast<double>(client_->rpc_round_trips());
    state.counters["bytes_on_wire"] = static_cast<double>(
        client_->bytes_sent() + client_->bytes_received());
    state.counters["batch_frames"] =
        static_cast<double>(client_->batch_frames_sent());
    // Transport-level observability: I/O syscalls and payload bytes on the
    // client side plus the server's own count from STATS. The bytes stay
    // flat across transports (same frames); the syscall count is how much
    // of the data path needed the kernel.
    uint64_t syscalls = client_->transport_syscalls();
    uint64_t bytes = client_->transport_bytes();
    plinda::net::Reply stats;
    if (client_->Stats(&stats) ==
        plinda::net::RemoteTupleSpace::CallStatus::kOk) {
      syscalls += stats.transport_syscalls;
      bytes += stats.transport_bytes;
    }
    state.counters["transport_syscalls"] = static_cast<double>(syscalls);
    state.counters["transport_bytes"] = static_cast<double>(bytes);
    // Server durability work: WAL write groups (one write(), plus one
    // fdatasync at sync:host) and checkpoints, the boot checkpoint included.
    state.counters["wal_group_commits"] =
        static_cast<double>(stats.wal_group_commits);
    state.counters["server_checkpoints"] =
        static_cast<double>(stats.checkpoints);
  }

 private:
  std::string dir_;
  plinda::net::SpaceServerOptions sopts_;
  pid_t server_pid_ = -1;
  std::unique_ptr<plinda::net::RemoteTupleSpace> client_;
  bool ok_ = false;
};

constexpr int kWireOps = 256;

void BM_WireUnbatchedOutIn(benchmark::State& state, bool wal_sync) {
  using namespace plinda;
  WireBench bench(WireTransport::kUnix, wal_sync);
  if (!bench.ok()) {
    state.SkipWithError("server connect failed");
    return;
  }
  const Template query = MakeTemplate(A("w"), F(ValueType::kInt));
  for (auto _ : state) {
    for (int i = 0; i < kWireOps; ++i) {
      bench.client().Out(MakeTuple("w", i));
    }
    Tuple t;
    for (int i = 0; i < kWireOps; ++i) {
      bench.client().In(query, /*blocking=*/false, /*remove=*/true, &t);
    }
  }
  state.SetItemsProcessed(state.iterations() * kWireOps * 2);
  bench.FillCounters(state);
}

void BM_WireBatchedOutIn(benchmark::State& state, WireTransport transport,
                         bool wal_sync) {
  using namespace plinda;
  WireBench bench(transport, wal_sync);
  if (!bench.ok()) {
    state.SkipWithError("server connect failed");
    return;
  }
  const Template query = MakeTemplate(A("w"), F(ValueType::kInt));
  for (auto _ : state) {
    for (int i = 0; i < kWireOps; ++i) {
      bench.client().BatchOut(MakeTuple("w", i));
    }
    for (int i = 0; i < kWireOps; ++i) {
      bench.client().BatchIn(query, /*remove=*/true);
    }
    if (bench.client().Flush() != net::RemoteTupleSpace::CallStatus::kOk) {
      state.SkipWithError("flush failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kWireOps * 2);
  bench.FillCounters(state);
}

// Single-op latency across the transport axis: one unbatched Out and one
// unbatched take per iteration, each a full request/reply round trip, so
// real_time/2 is the per-op wire latency in microseconds. Batching can't
// hide anything here — this row is where a transport's per-message cost
// shows up undiluted.
void BM_WirePingPong(benchmark::State& state, WireTransport transport,
                     bool wal_sync) {
  using namespace plinda;
  WireBench bench(transport, wal_sync);
  if (!bench.ok()) {
    state.SkipWithError("server connect failed");
    return;
  }
  const Template query = MakeTemplate(A("p"), F(ValueType::kInt));
  Tuple t;
  for (auto _ : state) {
    bench.client().Out(MakeTuple("p", 1));
    bench.client().In(query, /*blocking=*/false, /*remove=*/true, &t);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  bench.FillCounters(state);
}

// Checkpoint cost against a growing space: one unbatched out per iteration
// of a motif-dist-shaped result tuple that nothing consumes, so every
// snapshot is larger than the last. The iteration count is fixed, so the
// space ends at the same size in every run; time per op prices the
// checkpoints amortized over the outs, and server_checkpoints counts them.
void BM_ServerCheckpointGrowth(benchmark::State& state) {
  using namespace plinda;
  WireBench bench(WireTransport::kUnix, /*wal_sync=*/false);
  if (!bench.ok()) {
    state.SkipWithError("server connect failed");
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    bench.client().Out(MakeTuple("cost", "RKDLEGA" + std::to_string(i),
                                 1.0 / static_cast<double>(i + 3)));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  bench.FillCounters(state);
}

// Rows: <bench>[/<transport>]/sync:<mode>. Every wire row names the WAL
// sync mode it ran at; the unix rows run at both.
const bool kWireRows = [] {
  for (const bool wal_sync : {false, true}) {
    const std::string sync = SyncSuffix(wal_sync);
    benchmark::RegisterBenchmark(("BM_WireUnbatchedOutIn" + sync).c_str(),
                                 BM_WireUnbatchedOutIn, wal_sync)
        ->UseRealTime();
    benchmark::RegisterBenchmark(("BM_WireBatchedOutIn" + sync).c_str(),
                                 BM_WireBatchedOutIn, WireTransport::kUnix,
                                 wal_sync)
        ->UseRealTime();
  }
  // The batched workload over loopback TCP: the delta against
  // BM_WireBatchedOutIn/sync:process is pure transport cost (TCP/IP stack
  // + TCP_NODELAY small-frame behavior vs a Unix-domain socket).
  benchmark::RegisterBenchmark("BM_WireBatchedOutInTcp/sync:process",
                               BM_WireBatchedOutIn, WireTransport::kTcp,
                               /*wal_sync=*/false)
      ->UseRealTime();
  for (const WireTransport transport :
       {WireTransport::kUnix, WireTransport::kTcp}) {
    for (const bool wal_sync : {false, true}) {
      const std::string name =
          std::string("BM_WirePingPong/") +
          (transport == WireTransport::kUnix ? "unix" : "tcp") +
          SyncSuffix(wal_sync);
      benchmark::RegisterBenchmark(name.c_str(), BM_WirePingPong, transport,
                                   wal_sync)
          ->UseRealTime()
          ->Unit(benchmark::kMicrosecond);
    }
  }
  benchmark::RegisterBenchmark("BM_ServerCheckpointGrowth/sync:process",
                               BM_ServerCheckpointGrowth)
      ->Iterations(8192)
      ->UseRealTime()
      ->Unit(benchmark::kMicrosecond);
  return true;
}();

void BM_SuffixTreeBuild(benchmark::State& state) {
  seqmine::ProteinSetConfig config = seqmine::CyclinsLikeConfig();
  std::vector<std::string> seqs = seqmine::GenerateProteinSet(config);
  for (auto _ : state) {
    seqmine::GeneralizedSuffixTree gst(seqs);
    benchmark::DoNotOptimize(gst.node_count());
  }
}
BENCHMARK(BM_SuffixTreeBuild);

void BM_MotifMatchExact(benchmark::State& state) {
  std::vector<std::string> seqs =
      seqmine::GenerateProteinSet(seqmine::CyclinsLikeConfig());
  seqmine::Motif motif{{"ACDEFGHIKLMN"}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seqmine::OccurrenceNumber(motif, seqs, 0, nullptr));
  }
}
BENCHMARK(BM_MotifMatchExact);

void BM_MotifMatchDp(benchmark::State& state) {
  std::vector<std::string> seqs =
      seqmine::GenerateProteinSet(seqmine::CyclinsLikeConfig());
  seqmine::Motif motif{{"ACDEFGHIKLMN"}};
  const int mutations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        seqmine::OccurrenceNumber(motif, seqs, mutations, nullptr));
  }
}
BENCHMARK(BM_MotifMatchDp)->Arg(1)->Arg(4);

void BM_OptimalSplitDp(benchmark::State& state) {
  const int baskets = static_cast<int>(state.range(0));
  util::Rng rng(3);
  std::vector<classify::Basket> value_baskets;
  for (int i = 0; i < baskets; ++i) {
    classify::Basket b;
    b.lo = b.hi = i;
    for (int c = 0; c < 6; ++c) {
      b.counts.push_back(static_cast<double>(rng.NextBounded(20)));
    }
    value_baskets.push_back(std::move(b));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify::OptimalOrderedPartition(
        value_baskets, 4, classify::GiniImpurity, nullptr));
  }
}
BENCHMARK(BM_OptimalSplitDp)->Arg(16)->Arg(48);

void BM_NyuSplitterOnSatimage(benchmark::State& state) {
  data::BenchmarkSpec spec = data::SpecByName("satimage");
  spec.rows = 1000;
  classify::Dataset dataset = data::GenerateBenchmark(spec);
  classify::Splitter splitter =
      classify::MakeNyuSplitter(classify::NyuSplitterOptions{});
  std::vector<int> rows = dataset.AllRows();
  for (auto _ : state) {
    benchmark::DoNotOptimize(splitter(dataset, rows, nullptr));
  }
}
BENCHMARK(BM_NyuSplitterOnSatimage);

void BM_AprioriPass(benchmark::State& state) {
  arm::BasketConfig config;
  config.num_transactions = 1000;
  config.num_items = 40;
  config.patterns = {{{1, 5, 9}, 0.3}, {{2, 11}, 0.4}};
  arm::TransactionDb db = arm::GenerateBaskets(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(arm::Apriori(db, 120, nullptr));
  }
}
BENCHMARK(BM_AprioriPass);

void BM_TreeCutDistance(benchmark::State& state) {
  treemine::RnaForestConfig config;
  config.num_trees = 1;
  config.min_nodes = 25;
  config.max_nodes = 25;
  treemine::OrderedTree text = treemine::GenerateRnaForest(config)[0];
  treemine::OrderedTree motif = treemine::OrderedTree::Parse("M(B(H)I(H))");
  for (auto _ : state) {
    benchmark::DoNotOptimize(treemine::MinCutDistance(motif, text, nullptr));
  }
}
BENCHMARK(BM_TreeCutDistance);

}  // namespace

BENCHMARK_MAIN();
