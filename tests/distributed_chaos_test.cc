// Fault tolerance of ExecutionMode::kDistributed: SIGKILLing real worker
// processes mid-transaction and SIGKILLing the tuple-space server process
// mid-run must not lose or duplicate work. Workers sleep inside their task
// transactions so the scheduled wall-clock faults land mid-task
// deterministically; the PLinda transaction + continuation machinery then
// has to deliver exactly-once task effects through the recovery.

#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arm/problem.h"
#include "core/parallel.h"
#include "gtest/gtest.h"
#include "plinda/chaos.h"
#include "plinda/net/wire.h"
#include "plinda/runtime.h"
#include "plinda/tuple.h"
#include "plinda/tuple_space.h"

namespace fpdm {
namespace {

using plinda::A;
using plinda::ExecutionMode;
using plinda::F;
using plinda::GetInt;
using plinda::MakeTemplate;
using plinda::MakeTuple;
using plinda::ProcessContext;
using plinda::Runtime;
using plinda::RuntimeOptions;
using plinda::Tuple;
using plinda::ValueType;

constexpr int kNumTasks = 10;

/// Shard-server count for the runs that do not pin one explicitly:
/// FPDM_TEST_SERVERS in the environment (CI runs the suite at 3), default 1.
int TestServers() {
  const char* env = std::getenv("FPDM_TEST_SERVERS");
  if (env == nullptr || *env == '\0') return 1;
  const int n = std::atoi(env);
  return n > 0 ? n : 1;
}

/// Wire transport: FPDM_TEST_TRANSPORT in the environment ("unix" or "tcp";
/// CI re-runs the whole suite at tcp), default unix.
std::string TestTransport() {
  const char* env = std::getenv("FPDM_TEST_TRANSPORT");
  if (env == nullptr || *env == '\0') return "unix";
  return env;
}

/// WAL durability contract for the distributed runs: FPDM_TEST_WAL_SYNC=host
/// in the environment sets RuntimeOptions::distributed_wal_sync (CI runs
/// the multi-server and tcp steps that way), anything else keeps the
/// default write-only WAL.
bool TestWalSync() {
  const char* env = std::getenv("FPDM_TEST_WAL_SYNC");
  return env != nullptr && std::string(env) == "host";
}

RuntimeOptions DistOptions(int servers = 0) {
  RuntimeOptions options;
  options.mode = ExecutionMode::kDistributed;
  options.distributed_checkpoint_ops = 8;  // several checkpoints per run
  options.distributed_servers = servers > 0 ? servers : TestServers();
  options.distributed_transport = TestTransport();
  options.distributed_wal_sync = TestWalSync();
  return options;
}

// One worker consumes kNumTasks ("task", i) tuples, one per transaction,
// sleeping ~20ms inside each so the run spans a deterministic wall-clock
// window. Progress is committed as a continuation, so a respawned
// incarnation resumes exactly where the last commit left off.
void TaskLoop(ProcessContext& ctx) {
  int64_t done = 0;
  Tuple cont;
  if (ctx.XRecover(&cont)) done = GetInt(cont, 1);
  while (done < kNumTasks) {
    ctx.XStart();
    Tuple task;
    ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &task);
    ctx.Out(MakeTuple("res", GetInt(task, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ctx.Compute(1.0);
    ++done;
    ctx.XCommit(MakeTuple("progress", done));
  }
}

// Drains the ("res", i) tuples and checks every task produced its result
// exactly once — no losses, no duplicates — regardless of the faults.
void ExpectExactlyOnceResults(Runtime& runtime) {
  std::multiset<int64_t> results;
  Tuple tuple;
  while (runtime.space().TryIn(MakeTemplate(A("res"), F(ValueType::kInt)),
                               &tuple)) {
    results.insert(GetInt(tuple, 1));
  }
  ASSERT_EQ(results.size(), static_cast<size_t>(kNumTasks));
  for (int64_t i = 0; i < kNumTasks; ++i) {
    EXPECT_EQ(results.count(i), 1u) << "task " << i;
  }
}

TEST(DistributedChaosTest, WorkerKilledMidTransactionIsRespawned) {
  Runtime runtime(2, DistOptions());
  // ~200ms of work on machine 1; the kill at 80ms lands mid-transaction
  // (the worker sleeps inside it), the recovery at 150ms respawns. The
  // margin leaves room for the worker's own fork+connect+recover preamble
  // under sanitizers — the fault clock already excludes server boot.
  runtime.ScheduleFailure(1, 0.08);
  runtime.ScheduleRecovery(1, 0.15);
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("task", i));
  }
  runtime.SpawnOn("worker", 1, TaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_GE(runtime.stats().processes_killed, 1u);
  EXPECT_GE(runtime.stats().processes_respawned, 1u);
  ExpectExactlyOnceResults(runtime);
  // The aborted transaction's removal was rolled back server-side.
  EXPECT_GE(runtime.stats().transactions_aborted, 1u);
}

TEST(DistributedChaosTest, ServerKilledMidRunRecoversFromCheckpointAndLog) {
  Runtime runtime(1, DistOptions());
  // The server dies at 40ms — mid-run, past several logged operations —
  // and restarts at 100ms from its checkpoint + log. The worker's calls
  // stall, reconnect, and resend; dedup makes the retries exactly-once.
  runtime.ScheduleServerFailure(0.04);
  runtime.ScheduleServerRecovery(0.10);
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("task", i));
  }
  runtime.SpawnOn("worker", 0, TaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_EQ(runtime.stats().server_failures, 1u);
  EXPECT_GE(runtime.stats().server_checkpoints, 1u);
  EXPECT_GT(runtime.stats().server_downtime, 0.0);
  ExpectExactlyOnceResults(runtime);
}

// Like TaskLoop, but after each commit the worker publishes a three-tuple
// result group through the write-coalescing path, so the group travels as
// ONE kBatch frame (a single WAL record server-side). A server kill landing
// mid-flush forces a reconnect + resend; the dedup window must make the
// whole group apply exactly once — never a partial group, never twice.
void BatchyTaskLoop(ProcessContext& ctx) {
  int64_t done = 0;
  Tuple cont;
  if (ctx.XRecover(&cont)) done = GetInt(cont, 1);
  while (done < kNumTasks) {
    ctx.XStart();
    Tuple task;
    ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &task);
    const int64_t id = GetInt(task, 1);
    ctx.Out(MakeTuple("res", id));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ctx.Compute(1.0);
    ++done;
    ctx.XCommit(MakeTuple("progress", done));
    for (int64_t part = 0; part < 3; ++part) {
      ctx.Out(MakeTuple("part", id, part));
    }
  }
}

TEST(DistributedChaosTest, MidBatchServerKillAppliesWholeBatchOnceOrNotAtAll) {
  // 22 seeded fault plans spread server kills across the whole run window,
  // so some land while a worker's coalesced frames are mid-flight.
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    plinda::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.start_time = 0.02;
    chaos.horizon = 0.25;
    chaos.machine_mttf = 0;  // server faults only: workers stay alive, so
                             // every out (txn or batched) is exactly-once
    chaos.server_mttf = 0.07;
    chaos.server_mttr = 0.05;
    chaos.max_server_failures = 2;
    const plinda::FaultPlan plan = plinda::GenerateFaultPlan(1, chaos);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + ToString(plan));

    Runtime runtime(1, DistOptions());
    plinda::InstallFaultPlan(&runtime, plan);
    for (int64_t i = 0; i < kNumTasks; ++i) {
      runtime.space().Out(MakeTuple("task", i));
    }
    runtime.SpawnOn("worker", 0, BatchyTaskLoop);
    ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
    ExpectExactlyOnceResults(runtime);
    // Every task's three-part group survived intact: 3 parts per task,
    // each exactly once.
    std::multiset<std::pair<int64_t, int64_t>> parts;
    Tuple tuple;
    while (runtime.space().TryIn(
        MakeTemplate(A("part"), F(ValueType::kInt), F(ValueType::kInt)),
        &tuple)) {
      parts.insert({GetInt(tuple, 1), GetInt(tuple, 2)});
    }
    ASSERT_EQ(parts.size(), static_cast<size_t>(kNumTasks * 3));
    for (int64_t i = 0; i < kNumTasks; ++i) {
      for (int64_t part = 0; part < 3; ++part) {
        EXPECT_EQ(parts.count({i, part}), 1u)
            << "task " << i << " part " << part;
      }
    }
  }
}

// Formal-first task consumption: the tasks are seeded under kNumTasks
// DISTINCT bucket keys ("t0", "t1", ...) so they spread across the shard
// servers, and the worker's template leads with a formal — every In must
// probe all shards (the scatter/gather slow path), claim the winner's
// tuple destructively, and bind the transaction to the winner.
void ScatterTaskLoop(ProcessContext& ctx) {
  int64_t done = 0;
  Tuple cont;
  if (ctx.XRecover(&cont)) done = GetInt(cont, 1);
  while (done < kNumTasks) {
    ctx.XStart();
    Tuple task;
    ctx.In(MakeTemplate(F(ValueType::kString), F(ValueType::kInt),
                        F(ValueType::kInt)),
           &task);
    ctx.Out(MakeTuple("res", GetInt(task, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ctx.Compute(1.0);
    ++done;
    ctx.XCommit(MakeTuple("progress", done));
  }
}

void SeedScatterTasks(Runtime& runtime) {
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(
        MakeTuple("t" + std::to_string(i), i, static_cast<int64_t>(0)));
  }
}

TEST(DistributedChaosTest, ScatterGatherPipelinesAcrossServers) {
  // Fault-free baseline for the all-shard slow path at 3 servers: results
  // are exactly-once and the gather legs are pipelined — the round counter
  // grows with the number of scatter ops, not ops × servers.
  Runtime runtime(1, DistOptions(/*servers=*/3));
  SeedScatterTasks(runtime);
  runtime.SpawnOn("worker", 0, ScatterTaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  ExpectExactlyOnceResults(runtime);
  const plinda::RuntimeStats& stats = runtime.stats();
  EXPECT_GE(stats.dist_scatter_ops, static_cast<uint64_t>(kNumTasks));
  EXPECT_GE(stats.dist_scatter_rounds, stats.dist_scatter_ops);
  EXPECT_LE(stats.dist_scatter_rounds, 4 * stats.dist_scatter_ops);
  // Every scatter probes every shard, so all three legs carried traffic.
  ASSERT_EQ(stats.per_server_rpc_calls.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_GT(stats.per_server_rpc_calls[k], 0u) << "server " << k;
  }
}

TEST(DistributedChaosTest, BlockingScatterParksAcrossServersUntilProduced) {
  // The consumer starts before any task exists, so each formal-first In
  // misses its probe and must PARK a blocking rd on all three shards; the
  // producer then publishes tasks one at a time under rotating bucket
  // keys, waking whichever shard receives the tuple. The unpark retraction
  // of the losing legs must leave no stray matches behind.
  Runtime runtime(1, DistOptions(/*servers=*/3));
  runtime.SpawnOn("producer", 0, [](ProcessContext& ctx) {
    for (int64_t i = 0; i < kNumTasks; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ctx.Out(MakeTuple("t" + std::to_string(i), i, static_cast<int64_t>(0)));
    }
  });
  runtime.SpawnOn("consumer", 0, [](ProcessContext& ctx) {
    for (int64_t i = 0; i < kNumTasks; ++i) {
      Tuple task;
      ctx.In(MakeTemplate(F(ValueType::kString), F(ValueType::kInt),
                          F(ValueType::kInt)),
             &task);
      ctx.Out(MakeTuple("res", GetInt(task, 1)));
    }
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  ExpectExactlyOnceResults(runtime);
  EXPECT_GE(runtime.stats().dist_scatter_ops,
            static_cast<uint64_t>(kNumTasks));
  EXPECT_LE(runtime.stats().dist_scatter_rounds,
            4 * runtime.stats().dist_scatter_ops);
}

TEST(DistributedChaosTest, ShardServerKilledMidScatterRecoversExactlyOnce) {
  // 22 seeded fault plans, each killing individual shard servers (victim
  // drawn per crash) while a worker runs formal-first scatter transactions
  // across 3 servers. Whatever the kill interrupts — a probe, a parked
  // leg, the winner claim, the commit, or a forwarded out — recovery from
  // the per-server WAL + checkpoint plus client resend/dedup must deliver
  // every task's effects exactly once.
  uint64_t total_kills = 0;
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    plinda::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.start_time = 0.02;
    chaos.horizon = 0.25;
    chaos.machine_mttf = 0;  // shard-server faults only
    chaos.server_mttf = 0.07;
    chaos.server_mttr = 0.05;
    chaos.max_server_failures = 2;
    chaos.num_servers = 3;
    const plinda::FaultPlan plan = plinda::GenerateFaultPlan(1, chaos);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + ToString(plan));

    Runtime runtime(1, DistOptions(/*servers=*/3));
    plinda::InstallFaultPlan(&runtime, plan);
    SeedScatterTasks(runtime);
    runtime.SpawnOn("worker", 0, ScatterTaskLoop);
    ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
    ExpectExactlyOnceResults(runtime);
    EXPECT_GE(runtime.stats().dist_scatter_ops,
              static_cast<uint64_t>(kNumTasks));
    total_kills += runtime.stats().server_failures;
  }
  // The plans must actually have exercised shard kills (most seeds land at
  // least one crash inside the run's wall-clock window).
  EXPECT_GE(total_kills, 5u);
}

// Cross-server transactions: each task destructively claims TWO tuples
// under DIFFERENT bucket keys ("t<i>" then "u<i>") inside one transaction.
// At 3 shard servers the two keys frequently hash to different owners, so
// the commit takes the 2PC slow path: the home server (owner of the first
// in) coordinates a PREPARE/DECIDE round with the other participant.
void CrossTaskLoop(ProcessContext& ctx) {
  int64_t done = 0;
  Tuple cont;
  if (ctx.XRecover(&cont)) done = GetInt(cont, 1);
  while (done < kNumTasks) {
    ctx.XStart();
    Tuple a;
    ctx.In(MakeTemplate(A("t" + std::to_string(done)), F(ValueType::kInt)),
           &a);
    Tuple b;
    ctx.In(MakeTemplate(A("u" + std::to_string(done)), F(ValueType::kInt)),
           &b);
    ctx.Out(MakeTuple("res", GetInt(a, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ctx.Compute(1.0);
    ++done;
    ctx.XCommit(MakeTuple("progress", done));
  }
}

void SeedCrossTasks(Runtime& runtime) {
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("t" + std::to_string(i), i));
    runtime.space().Out(MakeTuple("u" + std::to_string(i), i));
  }
}

TEST(DistributedChaosTest, CrossServerTransactionsCommitAcrossShards) {
  // Fault-free baseline: destructive ins on buckets owned by different
  // servers commit through 2PC, and the results are exactly-once.
  Runtime runtime(1, DistOptions(/*servers=*/3));
  SeedCrossTasks(runtime);
  runtime.SpawnOn("worker", 0, CrossTaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  ExpectExactlyOnceResults(runtime);
  EXPECT_GE(runtime.stats().dist_txn_cross_server, 1u);
  EXPECT_GE(runtime.stats().dist_txn_prepares,
            runtime.stats().dist_txn_cross_server);
}

TEST(DistributedChaosTest, CoordinatorKilledInDoubtWindowConverges) {
  // The coordinator SIGKILLs itself upon its first PREPARE vote — after
  // fanning out PREPARE, before logging any decision — so every voted
  // participant sits in the in-doubt window while the coordinator is down.
  // After the supervisor respawns it, replay + the client's resent XCommit
  // must drive the transaction to ONE outcome on all shards, and the run's
  // results stay exactly-once.
  RuntimeOptions options = DistOptions(/*servers=*/3);
  options.distributed_die_in_doubt_after = 1;
  Runtime runtime(1, options);
  SeedCrossTasks(runtime);
  runtime.SpawnOn("worker", 0, CrossTaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  ExpectExactlyOnceResults(runtime);
  EXPECT_GE(runtime.stats().server_failures, 1u);
  EXPECT_GE(runtime.stats().dist_txn_cross_server, 1u);
}

TEST(DistributedChaosTest, ParticipantKilledAfterPreparedConverges) {
  // A participant SIGKILLs itself right after durably logging its first
  // PREPARED record, before acking the vote. The coordinator's PREPARE
  // resend after the respawn must be answered from the durable vote (the
  // parked ins survive in the snapshot/log), and the decision must reach
  // the participant exactly once.
  RuntimeOptions options = DistOptions(/*servers=*/3);
  options.distributed_die_after_prepared = 1;
  Runtime runtime(1, options);
  SeedCrossTasks(runtime);
  runtime.SpawnOn("worker", 0, CrossTaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  ExpectExactlyOnceResults(runtime);
  EXPECT_GE(runtime.stats().server_failures, 1u);
  EXPECT_GE(runtime.stats().dist_txn_cross_server, 1u);
}

TEST(DistributedChaosTest, CrossServerTxnSurvivesShardKillsExactlyOnce) {
  // 22 seeded fault plans over cross-server transactions at 3 shard
  // servers. On top of the scheduled SIGKILLs (half of which tear the
  // victim's final WAL append), every run arms ONE 2PC die point — odd
  // seeds kill the coordinator inside the PREPARE→DECIDE in-doubt window,
  // even seeds kill a participant right after logging PREPARED. (One per
  // run: each point fires once per server state dir, and arming both on 3
  // servers could exceed the supervisor's unplanned-crash budget.)
  // Whatever the kills interrupt, recovery must converge every in-doubt
  // transaction to one outcome and keep the results exactly-once.
  uint64_t total_kills = 0;
  uint64_t total_cross = 0;
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    plinda::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.start_time = 0.02;
    chaos.horizon = 0.25;
    chaos.machine_mttf = 0;  // shard-server faults only
    chaos.server_mttf = 0.07;
    chaos.server_mttr = 0.05;
    chaos.max_server_failures = 2;
    chaos.num_servers = 3;
    chaos.torn_tail_probability = 0.5;
    const plinda::FaultPlan plan = plinda::GenerateFaultPlan(1, chaos);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + ToString(plan));

    RuntimeOptions options = DistOptions(/*servers=*/3);
    if (seed % 2 == 1) {
      options.distributed_die_in_doubt_after = 1;
    } else {
      options.distributed_die_after_prepared = 1;
    }
    Runtime runtime(1, options);
    plinda::InstallFaultPlan(&runtime, plan);
    SeedCrossTasks(runtime);
    runtime.SpawnOn("worker", 0, CrossTaskLoop);
    ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
    ExpectExactlyOnceResults(runtime);
    total_kills += runtime.stats().server_failures;
    total_cross += runtime.stats().dist_txn_cross_server;
  }
  // Every run commits cross-server transactions, and the die points plus
  // the scheduled crashes must actually have fired.
  EXPECT_GT(total_cross, 0u);
  EXPECT_GE(total_kills, 22u);
}

TEST(DistributedChaosTest, PartitionedServerHealsAndResumesExactlyOnce) {
  // A partition is a link fault, not a crash: at 40ms the server's
  // connections are dropped and its traffic blackholed (the worker's calls
  // stall with no reply), at 120ms the link heals and the SAME server —
  // never restarted, no recovery replay — answers the reconnect/resend.
  // The dedup window must absorb the resent tail exactly once.
  Runtime runtime(1, DistOptions());
  runtime.ScheduleServerPartition(0.04);
  runtime.ScheduleServerHeal(0.12);
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("task", i));
  }
  runtime.SpawnOn("worker", 0, TaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_EQ(runtime.stats().server_partitions, 1u);
  EXPECT_EQ(runtime.stats().server_failures, 0u);  // nothing actually died
  ExpectExactlyOnceResults(runtime);
}

TEST(DistributedChaosTest, PartitionedShardBlackholesPeerLegsUntilHeal) {
  // At 3 shard servers a partitioned victim also loses its peer links, so
  // forwarded outs, scatter probes, and 2PC rounds that touch it stall
  // until the heal. The watermark/dedup machinery on the peer channels
  // must absorb the post-heal resends; cross-server transactions caught by
  // the cut must still converge to one outcome.
  Runtime runtime(1, DistOptions(/*servers=*/3));
  runtime.ScheduleServerPartition(0.03, /*server=*/1);
  runtime.ScheduleServerHeal(0.10, /*server=*/1);
  SeedCrossTasks(runtime);
  runtime.SpawnOn("worker", 0, CrossTaskLoop);
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_EQ(runtime.stats().server_partitions, 1u);
  ExpectExactlyOnceResults(runtime);
  EXPECT_GE(runtime.stats().dist_txn_cross_server, 1u);
}

TEST(DistributedChaosTest, PartitionStillInForceAtTheEndIsHealedForHarvest) {
  // The heal lies far beyond the end of the run, so when the worker exits
  // the outs its commits forwarded to the cut server are still queued on
  // their home server. The end-of-run drain must heal the link before its
  // forward barrier: left cut, those forwards can never land, and the
  // barrier fails the run however long it waits.
  const size_t job_home = plinda::net::PlacementIndex(
      plinda::BucketKeyFor(MakeTuple("job", int64_t{0})), 3);
  const size_t res_home = plinda::net::PlacementIndex(
      plinda::BucketKeyFor(MakeTuple("res", int64_t{0})), 3);
  ASSERT_NE(job_home, res_home) << "the res outs must be forwarded";
  Runtime runtime(1, DistOptions(/*servers=*/3));
  runtime.ScheduleServerPartition(0.2, static_cast<int>(res_home));
  runtime.ScheduleServerHeal(60.0, static_cast<int>(res_home));
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("job", i));
  }
  runtime.SpawnOn("worker", 0, [](ProcessContext& ctx) {
    // Commit only once the cut is in force. Every commit binds to the
    // job server, so none touches the cut one (no XRecover either: its
    // scatter would stall there until the heal).
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    for (int64_t done = 0; done < kNumTasks; ++done) {
      ctx.XStart();
      Tuple job;
      ctx.In(MakeTemplate(A("job"), F(ValueType::kInt)), &job);
      ctx.Out(MakeTuple("res", GetInt(job, 1)));
      ctx.XCommit();
    }
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_EQ(runtime.stats().server_partitions, 1u);
  ExpectExactlyOnceResults(runtime);
}

TEST(DistributedChaosTest, PartitionChaosSuiteConvergesExactlyOnce) {
  // 22 seeded fault plans mixing partitions with server crashes at 3 shard
  // servers, over cross-server transactions, with a 2PC die point armed on
  // every run (odd seeds: coordinator in-doubt; even seeds: participant
  // after PREPARED). Partition draws ride AFTER the crash draws in the
  // plan, so these seeds reuse the crash schedules of
  // CrossServerTxnSurvivesShardKillsExactlyOnce and layer link cuts on
  // top. Whatever combination lands — a partition spanning a crash, a
  // heal racing a recovery, an in-doubt transaction cut off from its
  // coordinator — results must stay exactly-once.
  uint64_t total_partitions = 0;
  uint64_t total_cross = 0;
  for (uint64_t seed = 1; seed <= 22; ++seed) {
    plinda::ChaosOptions chaos;
    chaos.seed = seed;
    chaos.start_time = 0.02;
    chaos.horizon = 0.25;
    chaos.machine_mttf = 0;  // server faults only
    chaos.server_mttf = 0.14;
    chaos.server_mttr = 0.05;
    chaos.max_server_failures = 1;
    chaos.num_servers = 3;
    chaos.partition_mttf = 0.06;
    chaos.partition_duration = 0.04;
    chaos.max_partitions = 2;
    const plinda::FaultPlan plan = plinda::GenerateFaultPlan(1, chaos);
    SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + ToString(plan));

    RuntimeOptions options = DistOptions(/*servers=*/3);
    if (seed % 2 == 1) {
      options.distributed_die_in_doubt_after = 1;
    } else {
      options.distributed_die_after_prepared = 1;
    }
    Runtime runtime(1, options);
    plinda::InstallFaultPlan(&runtime, plan);
    SeedCrossTasks(runtime);
    runtime.SpawnOn("worker", 0, CrossTaskLoop);
    ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
    ExpectExactlyOnceResults(runtime);
    total_partitions += runtime.stats().server_partitions;
    total_cross += runtime.stats().dist_txn_cross_server;
  }
  // The plans must actually have exercised partitions and 2PC.
  EXPECT_GE(total_partitions, 10u);
  EXPECT_GT(total_cross, 0u);
}

TEST(DistributedChaosTest, FatalServerExitFailsRunWithServerDead) {
  // A server whose WAL stops accepting appends mid-run _exits(1) rather
  // than acknowledge mutations it cannot make durable. Restarting it would
  // hit the same wall, so the supervisor must fail the run with a
  // structured kServerDead error instead of spinning until the deadlock
  // timeout. wal_fail_after = 25 lands past boot + task seeding, inside
  // the worker's task loop.
  RuntimeOptions options = DistOptions(/*servers=*/1);
  options.distributed_wal_fail_after = 25;
  Runtime runtime(1, options);
  for (int64_t i = 0; i < kNumTasks; ++i) {
    runtime.space().Out(MakeTuple("task", i));
  }
  runtime.SpawnOn("worker", 0, TaskLoop);
  EXPECT_FALSE(runtime.Run());
  bool saw_server_dead = false;
  for (const plinda::RuntimeError& error : runtime.errors()) {
    saw_server_dead |=
        error.code == plinda::RuntimeError::Code::kServerDead;
  }
  EXPECT_TRUE(saw_server_dead) << runtime.diagnostic();
}

TEST(DistributedChaosTest, MinerSurvivesWorkerKillWithIdenticalResults) {
  arm::BasketConfig config;
  config.num_transactions = 200;
  config.num_items = 22;
  config.avg_transaction_size = 6;
  config.patterns = {{{1, 4, 7}, 0.3}, {{2, 5}, 0.4}};
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/18);

  core::ParallelOptions reference;
  reference.strategy = core::Strategy::kLoadBalanced;
  reference.execution_mode = ExecutionMode::kSimulated;
  reference.num_workers = 4;
  const core::ParallelResult sim = core::MineParallel(problem, reference);
  ASSERT_TRUE(sim.ok) << sim.diagnostic;

  core::ParallelOptions faulty = reference;
  faulty.execution_mode = ExecutionMode::kDistributed;
  faulty.runtime.distributed_transport = TestTransport();
  faulty.runtime.distributed_wal_sync = TestWalSync();
  // Wall-clock kill early in the run; worker 1's open task transaction
  // rolls back and the worker respawns on an up machine. Whether the kill
  // lands mid-task or after the run's tail is timing-dependent — the
  // result may never be.
  faulty.failures = {{1, 0.01}};
  const core::ParallelResult dist = core::MineParallel(problem, faulty);
  ASSERT_TRUE(dist.ok) << dist.diagnostic;

  EXPECT_EQ(sim.mining.patterns_tested, dist.mining.patterns_tested);
  EXPECT_EQ(sim.mining.total_task_cost, dist.mining.total_task_cost);
  ASSERT_EQ(sim.mining.good_patterns.size(), dist.mining.good_patterns.size());
  for (size_t i = 0; i < sim.mining.good_patterns.size(); ++i) {
    EXPECT_EQ(sim.mining.good_patterns[i].pattern.key,
              dist.mining.good_patterns[i].pattern.key)
        << i;
    EXPECT_EQ(sim.mining.good_patterns[i].goodness,
              dist.mining.good_patterns[i].goodness)
        << i;
  }
}

}  // namespace
}  // namespace fpdm
