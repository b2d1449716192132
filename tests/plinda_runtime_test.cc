#include "plinda/runtime.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace fpdm::plinda {
namespace {

TEST(RuntimeTest, SingleProcessRunsToCompletion) {
  Runtime rt(1);
  bool ran = false;
  rt.Spawn("p", [&](ProcessContext& ctx) {
    ctx.Compute(10.0);
    ran = true;
  });
  EXPECT_TRUE(rt.Run());
  EXPECT_TRUE(ran);
  EXPECT_GT(rt.CompletionTime(), 10.0);
}

TEST(RuntimeTest, ComputeAdvancesVirtualTimeByMachineSpeed) {
  Runtime rt(2);
  rt.SetMachineSpeed(1, 2.0);
  double t_slow = 0, t_fast = 0;
  rt.SpawnOn("slow", 0, [&](ProcessContext& ctx) {
    double start = ctx.Now();
    ctx.Compute(100.0);
    t_slow = ctx.Now() - start;
  });
  rt.SpawnOn("fast", 1, [&](ProcessContext& ctx) {
    double start = ctx.Now();
    ctx.Compute(100.0);
    t_fast = ctx.Now() - start;
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_DOUBLE_EQ(t_slow, 100.0);
  EXPECT_DOUBLE_EQ(t_fast, 50.0);
}

TEST(RuntimeTest, OutThenInAcrossProcesses) {
  Runtime rt(2);
  int64_t received = 0;
  rt.Spawn("producer", [&](ProcessContext& ctx) {
    ctx.Compute(5.0);
    ctx.Out(MakeTuple("data", 42));
  });
  rt.Spawn("consumer", [&](ProcessContext& ctx) {
    Tuple t;
    ctx.In(MakeTemplate(A("data"), F(ValueType::kInt)), &t);
    received = GetInt(t, 1);
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(received, 42);
}

TEST(RuntimeTest, BlockingInWaitsForProducerVirtualTime) {
  Runtime rt(2);
  double consumer_done = 0;
  rt.Spawn("producer", [&](ProcessContext& ctx) {
    ctx.Compute(100.0);
    ctx.Out(MakeTuple("data", 1));
  });
  rt.Spawn("consumer", [&](ProcessContext& ctx) {
    Tuple t;
    ctx.In(MakeTemplate(A("data"), F(ValueType::kInt)), &t);
    consumer_done = ctx.Now();
  });
  ASSERT_TRUE(rt.Run());
  // The consumer cannot have the tuple before the producer computed it.
  EXPECT_GE(consumer_done, 100.0);
}

TEST(RuntimeTest, InpDoesNotBlock) {
  Runtime rt(1);
  bool found = true;
  rt.Spawn("p", [&](ProcessContext& ctx) {
    Tuple t;
    found = ctx.Inp(MakeTemplate(A("missing")), &t);
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_FALSE(found);
}

TEST(RuntimeTest, RdLeavesTupleInSpace) {
  Runtime rt(1);
  int64_t a = 0, b = 0;
  rt.Spawn("p", [&](ProcessContext& ctx) {
    ctx.Out(MakeTuple("x", 9));
    Tuple t;
    ctx.Rd(MakeTemplate(A("x"), F(ValueType::kInt)), &t);
    a = GetInt(t, 1);
    ctx.In(MakeTemplate(A("x"), F(ValueType::kInt)), &t);
    b = GetInt(t, 1);
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(a, 9);
  EXPECT_EQ(b, 9);
  EXPECT_TRUE(rt.space().empty());
}

TEST(RuntimeTest, MasterWorkerBagOfTasks) {
  // Classic Linda bag-of-tasks: 20 tasks, 4 workers, results collected.
  const int kTasks = 20;
  Runtime rt(5);
  std::vector<int64_t> results;
  rt.Spawn("master", [&](ProcessContext& ctx) {
    for (int i = 0; i < kTasks; ++i) ctx.Out(MakeTuple("task", i));
    for (int i = 0; i < kTasks; ++i) {
      Tuple t;
      ctx.In(MakeTemplate(A("result"), F(ValueType::kInt)), &t);
      results.push_back(GetInt(t, 1));
    }
    for (int w = 0; w < 4; ++w) ctx.Out(MakeTuple("task", -1));  // poison
  });
  for (int w = 0; w < 4; ++w) {
    rt.Spawn("worker", [&](ProcessContext& ctx) {
      for (;;) {
        Tuple t;
        ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &t);
        int64_t id = GetInt(t, 1);
        if (id < 0) return;
        ctx.Compute(10.0);
        ctx.Out(MakeTuple("result", id * id));
      }
    });
  }
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(results.size(), static_cast<size_t>(kTasks));
  int64_t sum = 0, expect = 0;
  for (int64_t r : results) sum += r;
  for (int i = 0; i < kTasks; ++i) expect += int64_t{i} * i;
  EXPECT_EQ(sum, expect);
}

TEST(RuntimeTest, ParallelWorkersGiveSpeedup) {
  // 8 tasks of 100 units on 1 vs 4 workers: the virtual clock must show
  // near-linear speedup.
  auto run_with = [](int workers) {
    Runtime rt(workers + 1);
    rt.Spawn("master", [workers](ProcessContext& ctx) {
      for (int i = 0; i < 8; ++i) ctx.Out(MakeTuple("task", i));
      for (int i = 0; i < 8; ++i) {
        Tuple t;
        ctx.In(MakeTemplate(A("result"), F(ValueType::kInt)), &t);
      }
      for (int w = 0; w < workers; ++w) ctx.Out(MakeTuple("task", -1));
    });
    for (int w = 0; w < workers; ++w) {
      rt.Spawn("worker", [](ProcessContext& ctx) {
        for (;;) {
          Tuple t;
          ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &t);
          if (GetInt(t, 1) < 0) return;
          ctx.Compute(100.0);
          ctx.Out(MakeTuple("result", GetInt(t, 1)));
        }
      });
    }
    EXPECT_TRUE(rt.Run());
    return rt.CompletionTime();
  };
  double t1 = run_with(1);
  double t4 = run_with(4);
  EXPECT_GT(t1 / t4, 3.0);
  EXPECT_LE(t1 / t4, 4.5);
}

TEST(RuntimeTest, DeterministicCompletionTime) {
  auto run_once = [] {
    Runtime rt(3);
    rt.Spawn("master", [](ProcessContext& ctx) {
      for (int i = 0; i < 10; ++i) ctx.Out(MakeTuple("task", i));
      for (int i = 0; i < 10; ++i) {
        Tuple t;
        ctx.In(MakeTemplate(A("result"), F(ValueType::kInt)), &t);
      }
      ctx.Out(MakeTuple("task", -1));
      ctx.Out(MakeTuple("task", -1));
    });
    for (int w = 0; w < 2; ++w) {
      rt.Spawn("worker", [w](ProcessContext& ctx) {
        for (;;) {
          Tuple t;
          ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &t);
          if (GetInt(t, 1) < 0) return;
          ctx.Compute(10.0 * (w + 1));
          ctx.Out(MakeTuple("result", GetInt(t, 1)));
        }
      });
    }
    EXPECT_TRUE(rt.Run());
    return rt.CompletionTime();
  };
  double a = run_once();
  double b = run_once();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(RuntimeTest, DeadlockDetected) {
  Runtime rt(1);
  rt.Spawn("stuck", [](ProcessContext& ctx) {
    Tuple t;
    ctx.In(MakeTemplate(A("never")), &t);
  });
  EXPECT_FALSE(rt.Run());
  EXPECT_TRUE(rt.deadlocked());
  // The diagnostic names the blocked process and its pending template.
  EXPECT_NE(rt.diagnostic().find("stuck"), std::string::npos) << rt.diagnostic();
  EXPECT_NE(rt.diagnostic().find("\"never\""), std::string::npos)
      << rt.diagnostic();
}

TEST(RuntimeTest, DeadlockDiagnosticListsEveryBlockedProcess) {
  for (ExecutionMode mode :
       {ExecutionMode::kSimulated, ExecutionMode::kRealParallel}) {
    RuntimeOptions options;
    options.mode = mode;
    Runtime rt(2, options);
    rt.Spawn("wants-apples", [](ProcessContext& ctx) {
      Tuple t;
      ctx.In(MakeTemplate(A("apple"), F(ValueType::kInt)), &t);
    });
    rt.Spawn("wants-pears", [](ProcessContext& ctx) {
      Tuple t;
      ctx.Rd(MakeTemplate(A("pear"), F(ValueType::kString)), &t);
    });
    EXPECT_FALSE(rt.Run());
    EXPECT_TRUE(rt.deadlocked());
    const std::string& diag = rt.diagnostic();
    EXPECT_NE(diag.find("wants-apples"), std::string::npos) << diag;
    EXPECT_NE(diag.find("in (\"apple\", ?int)"), std::string::npos) << diag;
    EXPECT_NE(diag.find("wants-pears"), std::string::npos) << diag;
    EXPECT_NE(diag.find("rd (\"pear\", ?string)"), std::string::npos)
        << diag;
  }
}

TEST(RuntimeTest, DiagnosticEmptyOnSuccess) {
  Runtime rt(1);
  rt.Spawn("p", [](ProcessContext& ctx) { ctx.Compute(1.0); });
  ASSERT_TRUE(rt.Run());
  EXPECT_TRUE(rt.diagnostic().empty());
  EXPECT_TRUE(rt.errors().empty());
}

TEST(RuntimeTest, TransactionCommitPublishesOuts) {
  Runtime rt(2);
  bool consumer_saw = false;
  double saw_at = 0;
  rt.Spawn("producer", [&](ProcessContext& ctx) {
    ctx.XStart();
    ctx.Out(MakeTuple("data", 1));
    ctx.Compute(50.0);
    ctx.XCommit();
  });
  rt.Spawn("consumer", [&](ProcessContext& ctx) {
    Tuple t;
    ctx.In(MakeTemplate(A("data"), F(ValueType::kInt)), &t);
    consumer_saw = true;
    saw_at = ctx.Now();
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_TRUE(consumer_saw);
  // Visibility only after commit, which is after the 50-unit compute.
  EXPECT_GE(saw_at, 50.0);
}

TEST(RuntimeTest, TransactionSeesOwnOuts) {
  Runtime rt(1);
  bool found = false;
  rt.Spawn("p", [&](ProcessContext& ctx) {
    ctx.XStart();
    ctx.Out(MakeTuple("mine", 5));
    Tuple t;
    found = ctx.Inp(MakeTemplate(A("mine"), F(ValueType::kInt)), &t);
    ctx.XCommit();
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_TRUE(found);
  EXPECT_TRUE(rt.space().empty());  // ined before commit: never published
}

TEST(RuntimeTest, ContinuationCommitAndRecover) {
  Runtime rt(1);
  bool first_recover = true;
  Tuple recovered;
  rt.Spawn("p", [&](ProcessContext& ctx) {
    Tuple cont;
    first_recover = ctx.XRecover(&cont);
    ctx.XStart();
    ctx.XCommit(MakeTuple("state", 7));
    ASSERT_TRUE(ctx.XRecover(&recovered));
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_FALSE(first_recover);  // nothing committed yet on first call
  EXPECT_EQ(GetInt(recovered, 1), 7);
}

TEST(RuntimeTest, FailureKillsAndRespawnsProcess) {
  Runtime rt(2);
  rt.ScheduleFailure(/*machine=*/1, /*time=*/50.0);
  int incarnations_seen = 0;
  bool finished = false;
  rt.SpawnOn("victim", 1, [&](ProcessContext& ctx) {
    ++incarnations_seen;
    ctx.Compute(100.0);  // straddles the failure at t=50
    finished = true;
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(incarnations_seen, 2);  // killed once, respawned on machine 0
  EXPECT_TRUE(finished);
  EXPECT_EQ(rt.stats().processes_killed, 1u);
  EXPECT_EQ(rt.stats().processes_respawned, 1u);
}

TEST(RuntimeTest, FailureAbortsTransactionAndRestoresTuples) {
  // The PLinda guarantee: a failed execution leaves the same final state as
  // a failure-free one. The victim ins the task inside a transaction, dies
  // before commit; the task must return to tuple space for its respawn.
  Runtime rt(2);
  rt.ScheduleFailure(1, 30.0);
  int attempts = 0;
  int64_t result = 0;
  rt.SpawnOn("worker", 1, [&](ProcessContext& ctx) {
    ++attempts;
    for (;;) {
      Tuple t;
      ctx.XStart();
      if (!ctx.Inp(MakeTemplate(A("task"), F(ValueType::kInt)), &t)) {
        ctx.XCommit();
        return;
      }
      ctx.Compute(100.0);  // dies here on the first attempt
      ctx.Out(MakeTuple("result", GetInt(t, 1) * 2));
      ctx.XCommit();
    }
  });
  rt.space().Out(MakeTuple("task", 21));
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(rt.stats().transactions_aborted, 1u);
  Tuple t;
  ASSERT_TRUE(rt.space().TryIn(MakeTemplate(A("result"), F(ValueType::kInt)), &t));
  result = GetInt(t, 1);
  EXPECT_EQ(result, 42);
}

TEST(RuntimeTest, RecoverContinuationAfterFailure) {
  // Continuation committing: the process saves progress via XCommit(state)
  // and its respawn resumes from there instead of redoing finished work.
  Runtime rt(2);
  rt.ScheduleFailure(1, 100.0);
  std::vector<int64_t> attempted_steps;
  rt.SpawnOn("p", 1, [&](ProcessContext& ctx) {
    int64_t step = 0;
    Tuple cont;
    if (ctx.XRecover(&cont)) step = GetInt(cont, 0) + 1;
    for (; step < 4; ++step) {
      ctx.XStart();
      attempted_steps.push_back(step);
      ctx.Compute(40.0);  // the failure at t=100 lands inside step 2
      ctx.XCommit(MakeTuple(step));
    }
  });
  ASSERT_TRUE(rt.Run());
  // Steps 0,1 commit before t=100 (spawn delay + 2*40 + overhead); step 2 is
  // lost to the failure and re-attempted after XRecover, then step 3 runs.
  std::vector<int64_t> expected = {0, 1, 2, 2, 3};
  EXPECT_EQ(attempted_steps, expected);
  EXPECT_EQ(rt.stats().processes_respawned, 1u);
}

TEST(RuntimeTest, FailedMachineNotUsedForSpawns) {
  Runtime rt(2);
  rt.ScheduleFailure(0, 10.0);
  int machine_of_child = -1;
  rt.SpawnOn("parent", 1, [&](ProcessContext& ctx) {
    ctx.Compute(50.0);  // past the failure of machine 0
    ctx.Spawn("child", [&](ProcessContext& cctx) {
      machine_of_child = cctx.machine();
    });
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(machine_of_child, 1);
}

TEST(RuntimeTest, RecoveryBringsMachineBack) {
  Runtime rt(2);
  rt.ScheduleFailure(1, 10.0);
  rt.ScheduleRecovery(1, 20.0);
  // Victim is killed at t=10; no other machine? machine 0 is up, so respawn
  // goes there. This test exercises recovery for future placement instead:
  // a process spawned after t=20 may land on machine 1 again.
  int child_machine = -1;
  rt.SpawnOn("parent", 0, [&](ProcessContext& ctx) {
    ctx.Compute(100.0);
    ctx.Spawn("child", [&](ProcessContext& cctx) {
      child_machine = cctx.machine();
      cctx.Compute(1.0);
    });
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(child_machine, 1);  // least-loaded up machine after recovery
}

TEST(RuntimeTest, SpawnFromProcess) {
  Runtime rt(2);
  int64_t got = 0;
  rt.Spawn("master", [&](ProcessContext& ctx) {
    ctx.Spawn("child", [](ProcessContext& cctx) {
      cctx.Compute(5.0);
      cctx.Out(MakeTuple("from_child", 99));
    });
    Tuple t;
    ctx.In(MakeTemplate(A("from_child"), F(ValueType::kInt)), &t);
    got = GetInt(t, 1);
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(got, 99);
}

TEST(RuntimeTest, StatsAreCounted) {
  Runtime rt(1);
  rt.Spawn("p", [](ProcessContext& ctx) {
    ctx.XStart();
    ctx.Out(MakeTuple("a", 1));
    ctx.XCommit();
    Tuple t;
    ctx.In(MakeTemplate(A("a"), F(ValueType::kInt)), &t);
    ctx.Compute(3.0);
  });
  ASSERT_TRUE(rt.Run());
  EXPECT_EQ(rt.stats().tuple_ops, 2u);
  EXPECT_EQ(rt.stats().transactions_committed, 1u);
  EXPECT_DOUBLE_EQ(rt.stats().total_work, 3.0);
}

TEST(RuntimeTraceTest, RecordsLifecycleEvents) {
  Runtime rt(2);
  rt.ScheduleFailure(1, 50.0);
  rt.SpawnOn("victim", 1, [](ProcessContext& ctx) { ctx.Compute(100.0); });
  ASSERT_TRUE(rt.Run());
  std::vector<TraceEvent::Kind> kinds;
  for (const TraceEvent& event : rt.trace()) kinds.push_back(event.kind);
  // Spawn -> machine failure -> kill -> respawn -> done, in that order.
  std::vector<TraceEvent::Kind> expected = {
      TraceEvent::Kind::kSpawned, TraceEvent::Kind::kMachineFailed,
      TraceEvent::Kind::kKilled, TraceEvent::Kind::kRespawned,
      TraceEvent::Kind::kDone};
  EXPECT_EQ(kinds, expected);
  // Events are stamped in nondecreasing virtual time.
  for (size_t i = 1; i < rt.trace().size(); ++i) {
    EXPECT_GE(rt.trace()[i].time, rt.trace()[i - 1].time);
  }
  EXPECT_EQ(rt.trace()[2].process, "victim");
  EXPECT_DOUBLE_EQ(rt.trace()[1].time, 50.0);
}

TEST(RuntimeTraceTest, ToStringReadable) {
  Runtime rt(1);
  rt.Spawn("p", [](ProcessContext& ctx) { ctx.Compute(1.0); });
  ASSERT_TRUE(rt.Run());
  ASSERT_GE(rt.trace().size(), 2u);
  const std::string line = ToString(rt.trace().front());
  EXPECT_NE(line.find("SPAWNED"), std::string::npos);
  EXPECT_NE(line.find("p"), std::string::npos);
}

TEST(RuntimeTraceTest, CanBeDisabled) {
  Runtime rt(1);
  rt.set_trace_enabled(false);
  rt.Spawn("p", [](ProcessContext& ctx) { ctx.Compute(1.0); });
  ASSERT_TRUE(rt.Run());
  EXPECT_TRUE(rt.trace().empty());
}

// --- Process lifecycle on simulator fibers --------------------------------

// Counts destructor runs: a sentinel on a process's stack proves that the
// stack was unwound rather than abandoned.
struct UnwindSentinel {
  explicit UnwindSentinel(int* count) : count(count) {}
  ~UnwindSentinel() { ++*count; }
  int* count;
};

TEST(RuntimeFiberTest, DeadlockUnwindsEveryProcessAndRestoresOpenIns) {
  Runtime rt(3);
  rt.space().Out(MakeTuple("task", 1));
  rt.space().Out(MakeTuple("task", 2));
  int unwound = 0;
  for (int p = 0; p < 2; ++p) {
    rt.Spawn("txn-" + std::to_string(p), [&](ProcessContext& ctx) {
      UnwindSentinel sentinel(&unwound);
      ctx.XStart();
      Tuple task;
      ctx.In(MakeTemplate(A("task"), F(ValueType::kInt)), &task);
      Tuple never;
      ctx.In(MakeTemplate(A("never")), &never);  // blocked inside the txn
      ctx.XCommit();
    });
  }
  rt.Spawn("plain", [&](ProcessContext& ctx) {
    UnwindSentinel sentinel(&unwound);
    Tuple never;
    ctx.In(MakeTemplate(A("never")), &never);  // blocked outside any txn
  });
  EXPECT_FALSE(rt.Run());
  EXPECT_TRUE(rt.deadlocked());
  // Run() returns only after every process stack has unwound.
  EXPECT_EQ(unwound, 3);
  EXPECT_EQ(rt.stats().processes_killed, 3u);
  EXPECT_EQ(rt.stats().transactions_aborted, 2u);
  // Both open transactions' ins went back to the space.
  std::vector<int64_t> tasks;
  Tuple t;
  while (rt.space().TryIn(MakeTemplate(A("task"), F(ValueType::kInt)), &t)) {
    tasks.push_back(GetInt(t, 1));
  }
  std::sort(tasks.begin(), tasks.end());
  EXPECT_EQ(tasks, (std::vector<int64_t>{1, 2}));
  EXPECT_TRUE(rt.space().empty());
}

TEST(RuntimeFiberTest, DestroyedWithoutRunNeverRunsBodies) {
  bool ran = false;
  auto captured = std::make_shared<int>(7);
  {
    Runtime rt(2);
    for (int p = 0; p < 3; ++p) {
      rt.Spawn("p", [&ran, captured](ProcessContext& ctx) {
        ran = true;
        ctx.Compute(1.0);
      });
    }
    EXPECT_EQ(captured.use_count(), 4);
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(captured.use_count(), 1);  // every process body was released
}

// Recurses `depth` frames of 4 KiB each, yielding to the scheduler at the
// bottom; returns the stack span it covered in bytes.
uintptr_t RecurseDeep(ProcessContext& ctx, int depth, uintptr_t top) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  frame[sizeof(frame) - 1] = frame[0];
  const auto here = reinterpret_cast<uintptr_t>(&frame[0]);
  if (depth == 0) {
    ctx.Compute(1.0);  // switch away and back while 2+ MiB deep
    return top - here;
  }
  const uintptr_t span = RecurseDeep(ctx, depth - 1, top);
  return span + (frame[sizeof(frame) - 1] == frame[0] ? 0 : 1);
}

TEST(RuntimeFiberTest, ProcessStackHoldsTwoMebibytesOfRecursion) {
  Runtime rt(2);
  uintptr_t span = 0;
  rt.Spawn("deep", [&](ProcessContext& ctx) {
    char top = 0;
    span = RecurseDeep(ctx, 600, reinterpret_cast<uintptr_t>(&top));
  });
  rt.Spawn("other", [](ProcessContext& ctx) { ctx.Compute(0.5); });
  ASSERT_TRUE(rt.Run()) << rt.diagnostic();
  EXPECT_GE(span, uintptr_t{2} << 20);
}

TEST(RuntimeFiberTest, RespawnAfterMidTransactionKillReusesStack) {
  // One worker drains five tasks, one transaction each. A failure of its
  // machine lands inside the third task's transaction: the task rolls back
  // and the respawned incarnation, on the same fiber stack, finishes the
  // bag with the failure-free run's results.
  auto run = [](bool fail, std::vector<uintptr_t>* frames) {
    Runtime rt(2);
    if (fail) rt.ScheduleFailure(1, 25.0);
    for (int i = 0; i < 5; ++i) rt.space().Out(MakeTuple("task", i));
    rt.SpawnOn("worker", 1, [frames](ProcessContext& ctx) {
      const void* frame = __builtin_frame_address(0);
      frames->push_back(reinterpret_cast<uintptr_t>(frame));
      for (;;) {
        ctx.XStart();
        Tuple task;
        if (!ctx.Inp(MakeTemplate(A("task"), F(ValueType::kInt)), &task)) {
          ctx.XCommit();
          return;
        }
        ctx.Compute(10.0);
        ctx.Out(MakeTuple("result", GetInt(task, 1) * GetInt(task, 1)));
        ctx.XCommit();
      }
    });
    EXPECT_TRUE(rt.Run()) << rt.diagnostic();
    const Template result = MakeTemplate(A("result"), F(ValueType::kInt));
    std::vector<int64_t> results;
    Tuple t;
    while (rt.space().TryIn(result, &t)) results.push_back(GetInt(t, 1));
    std::sort(results.begin(), results.end());
    EXPECT_TRUE(rt.space().empty());
    return std::make_pair(results, rt.stats());
  };
  std::vector<uintptr_t> clean_frames, faulty_frames;
  const auto [clean, clean_stats] = run(false, &clean_frames);
  const auto [faulty, faulty_stats] = run(true, &faulty_frames);
  EXPECT_EQ(clean, (std::vector<int64_t>{0, 1, 4, 9, 16}));
  EXPECT_EQ(faulty, clean);
  EXPECT_EQ(clean_stats.processes_killed, 0u);
  EXPECT_EQ(faulty_stats.processes_killed, 1u);
  EXPECT_EQ(faulty_stats.processes_respawned, 1u);
  EXPECT_EQ(faulty_stats.transactions_aborted, 1u);
  EXPECT_EQ(faulty_stats.transactions_committed,
            clean_stats.transactions_committed);
  // Both incarnations ran their body from the same frame: the respawn
  // reused the first incarnation's stack.
  ASSERT_EQ(faulty_frames.size(), 2u);
  EXPECT_EQ(faulty_frames[0], faulty_frames[1]);
}

// --- kRealParallel: OS threads on the runtime's one tuple space -----------
//
// These run in fpdm_plinda_tests, so every tier-1 run also executes them
// under ThreadSanitizer (see run_tsan.cmake): the concurrent cases double
// as race detectors for the real-mode op paths and the waiter hand-off.

RuntimeOptions RealOptions() {
  RuntimeOptions options;
  options.mode = ExecutionMode::kRealParallel;
  return options;
}

Template TaskTemplate() {
  return MakeTemplate(A("task"), F(ValueType::kInt));
}

TEST(RealParallelRuntimeTest, WorkersDrainTasksThroughTransactions) {
  constexpr int kWorkers = 4;
  constexpr int kTasks = 200;
  Runtime runtime(kWorkers, RealOptions());
  for (int i = 0; i < kTasks; ++i) {
    runtime.space().Out(MakeTuple("task", int64_t{i}));
  }
  for (int w = 0; w < kWorkers; ++w) {
    runtime.space().Out(MakeTuple("task", int64_t{-1}));
  }
  for (int w = 0; w < kWorkers; ++w) {
    runtime.Spawn("worker-" + std::to_string(w), [](ProcessContext& ctx) {
      for (;;) {
        ctx.XStart();
        Tuple task;
        ctx.In(TaskTemplate(), &task);
        const int64_t i = GetInt(task, 1);
        if (i < 0) {
          ctx.XCommit();
          return;
        }
        ctx.Compute(1.0);
        ctx.Out(MakeTuple("done", i, i * 2));
        ctx.XCommit();
      }
    });
  }
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_FALSE(runtime.deadlocked());
  EXPECT_GE(runtime.wall_time(), 0.0);
  EXPECT_EQ(runtime.CompletionTime(), runtime.wall_time());
  Template done = MakeTemplate(A("done"), F(ValueType::kInt),
                               F(ValueType::kInt));
  EXPECT_EQ(runtime.space().CountMatches(done), static_cast<size_t>(kTasks));
  EXPECT_EQ(runtime.stats().transactions_committed,
            static_cast<uint64_t>(kTasks + kWorkers));
  EXPECT_EQ(runtime.stats().total_work, static_cast<double>(kTasks));
}

TEST(RealParallelRuntimeTest, DeadlockIsDetectedAndDiagnosed) {
  Runtime runtime(2, RealOptions());
  runtime.Spawn("stuck-a", [](ProcessContext& ctx) {
    Tuple t;
    ctx.In(MakeTemplate(A("never"), F(ValueType::kInt)), &t);
  });
  runtime.Spawn("stuck-b", [](ProcessContext& ctx) {
    Tuple t;
    ctx.Rd(MakeTemplate(F(ValueType::kString)), &t);  // formal-first waiter
  });
  EXPECT_FALSE(runtime.Run());
  EXPECT_TRUE(runtime.deadlocked());
  const std::string& diag = runtime.diagnostic();
  EXPECT_NE(diag.find("stuck-a"), std::string::npos) << diag;
  EXPECT_NE(diag.find("in (\"never\", ?int)"), std::string::npos) << diag;
  EXPECT_NE(diag.find("stuck-b"), std::string::npos) << diag;
  EXPECT_NE(diag.find("rd (?string)"), std::string::npos) << diag;
  EXPECT_EQ(runtime.stats().processes_killed, 2u);
}

// The deadlock cancel wakes every parked process, whatever its template,
// and unwinds its stack; an open transaction's ins go back to the space.
TEST(RealParallelRuntimeTest, DeadlockCancelUnwindsEveryParkedProcess) {
  Runtime runtime(3, RealOptions());
  runtime.space().Out(MakeTuple("task", int64_t{1}));
  std::atomic<int> unwound{0};
  struct Sentinel {  // UnwindSentinel, safe across threads
    std::atomic<int>* count;
    ~Sentinel() { ++*count; }
  };
  runtime.Spawn("in-actual-first", [&](ProcessContext& ctx) {
    Sentinel sentinel{&unwound};
    ctx.XStart();
    Tuple task;
    ctx.In(TaskTemplate(), &task);
    Tuple never;
    ctx.In(MakeTemplate(A("never"), F(ValueType::kInt)), &never);
    ctx.XCommit();
  });
  runtime.Spawn("rd-formal-first", [&](ProcessContext& ctx) {
    Sentinel sentinel{&unwound};
    Tuple never;
    ctx.Rd(MakeTemplate(F(ValueType::kString), F(ValueType::kDouble)),
           &never);
  });
  runtime.Spawn("finisher", [](ProcessContext& ctx) { ctx.Compute(1.0); });
  EXPECT_FALSE(runtime.Run());
  EXPECT_TRUE(runtime.deadlocked());
  EXPECT_EQ(unwound.load(), 2);
  EXPECT_EQ(runtime.stats().processes_killed, 2u);
  EXPECT_EQ(runtime.stats().transactions_aborted, 1u);
  EXPECT_EQ(runtime.space().CountMatches(TaskTemplate()), 1u);
  EXPECT_EQ(runtime.diagnostic().find("finisher"), std::string::npos)
      << runtime.diagnostic();
}

TEST(RealParallelRuntimeTest, FaultInjectionIsRejected) {
  Runtime runtime(2, RealOptions());
  runtime.ScheduleFailure(1, 5.0);
  runtime.Spawn("worker", [](ProcessContext& ctx) { ctx.Compute(1.0); });
  EXPECT_FALSE(runtime.Run());
  ASSERT_EQ(runtime.errors().size(), 1u);
  EXPECT_EQ(runtime.errors()[0].code,
            RuntimeError::Code::kFaultInjectionUnsupported);
  EXPECT_NE(runtime.diagnostic().find("fault injection"), std::string::npos);
}

TEST(RealParallelRuntimeTest, ProtocolErrorAbortsAndRestoresTransactionIns) {
  Runtime runtime(2, RealOptions());
  runtime.space().Out(MakeTuple("abortable", int64_t{42}));
  runtime.Spawn("aborter", [](ProcessContext& ctx) {
    ctx.XStart();
    Tuple t;
    ctx.In(MakeTemplate(A("abortable"), F(ValueType::kInt)), &t);
    ctx.XStart();  // nested: protocol error unwinds and aborts the txn
  });
  EXPECT_FALSE(runtime.Run());
  ASSERT_EQ(runtime.errors().size(), 1u);
  EXPECT_EQ(runtime.errors()[0].code, RuntimeError::Code::kNestedXStart);
  // The abort restored the removed tuple.
  EXPECT_EQ(runtime.space().CountMatches(
                MakeTemplate(A("abortable"), F(ValueType::kInt))),
            1u);
  EXPECT_EQ(runtime.stats().transactions_aborted, 1u);
}

TEST(RealParallelRuntimeTest, ContinuationsRoundTrip) {
  Runtime runtime(1, RealOptions());
  std::atomic<bool> recovered{false};
  runtime.Spawn("committer", [&](ProcessContext& ctx) {
    Tuple ignored;
    EXPECT_FALSE(ctx.XRecover(&ignored));  // fresh process: no continuation
    ctx.XStart();
    ctx.XCommit(MakeTuple("state", int64_t{7}));
    Tuple cont;
    ASSERT_TRUE(ctx.XRecover(&cont));
    EXPECT_EQ(GetString(cont, 0), "state");
    EXPECT_EQ(GetInt(cont, 1), 7);
    recovered = true;
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_TRUE(recovered.load());
}

TEST(RealParallelRuntimeTest, FormalFirstBlockingRdSeesLatePublish) {
  Runtime runtime(2, RealOptions());
  std::atomic<bool> got{false};
  runtime.Spawn("reader", [&](ProcessContext& ctx) {
    Tuple t;
    ctx.Rd(MakeTemplate(F(ValueType::kString), F(ValueType::kInt)), &t);
    EXPECT_EQ(GetString(t, 0), "late");
    got = true;
  });
  runtime.Spawn("writer", [](ProcessContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ctx.Out(MakeTuple("late", int64_t{1}));
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
  EXPECT_TRUE(got.load());
  // A rd hands over a copy: the tuple stays in the space.
  EXPECT_EQ(runtime.space().CountMatches(
                MakeTemplate(A("late"), F(ValueType::kInt))),
            1u);
}

TEST(RealParallelRuntimeTest, DynamicSpawnRunsImmediately) {
  Runtime runtime(2, RealOptions());
  runtime.Spawn("parent", [](ProcessContext& ctx) {
    ctx.Spawn("child", [](ProcessContext& cctx) {
      cctx.Out(MakeTuple("child_done", int64_t{1}));
    });
    Tuple t;
    ctx.In(MakeTemplate(A("child_done"), F(ValueType::kInt)), &t);
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();
}

// Transactions committing and aborting concurrently: workers drain tasks
// while aborters repeatedly die mid-transaction; every abortable tuple must
// be restored and every task still processed exactly once.
TEST(RealParallelRuntimeTest, ConcurrentCommitsAndAborts) {
  constexpr int kWorkers = 3;
  constexpr int kAborters = 2;
  constexpr int kTasks = 120;
  Runtime runtime(kWorkers + kAborters, RealOptions());
  for (int i = 0; i < kTasks; ++i) {
    runtime.space().Out(MakeTuple("task", int64_t{i}));
  }
  for (int w = 0; w < kWorkers; ++w) {
    runtime.space().Out(MakeTuple("task", int64_t{-1}));
  }
  for (int a = 0; a < kAborters; ++a) {
    runtime.space().Out(MakeTuple("abortable", int64_t{a}));
  }
  for (int w = 0; w < kWorkers; ++w) {
    runtime.Spawn("worker-" + std::to_string(w), [](ProcessContext& ctx) {
      for (;;) {
        ctx.XStart();
        Tuple task;
        ctx.In(TaskTemplate(), &task);
        if (GetInt(task, 1) < 0) {
          ctx.XCommit();
          return;
        }
        ctx.Out(MakeTuple("done", GetInt(task, 1)));
        ctx.XCommit();
      }
    });
  }
  for (int a = 0; a < kAborters; ++a) {
    runtime.Spawn("aborter-" + std::to_string(a), [](ProcessContext& ctx) {
      ctx.XStart();
      Tuple t;
      ctx.In(MakeTemplate(A("abortable"), F(ValueType::kInt)), &t);
      ctx.XStart();  // protocol error: transaction aborts, tuple restored
    });
  }
  EXPECT_FALSE(runtime.Run());  // aborters report protocol errors
  EXPECT_EQ(runtime.errors().size(), static_cast<size_t>(kAborters));
  EXPECT_EQ(runtime.space().CountMatches(
                MakeTemplate(A("done"), F(ValueType::kInt))),
            static_cast<size_t>(kTasks));
  EXPECT_EQ(runtime.space().CountMatches(
                MakeTemplate(A("abortable"), F(ValueType::kInt))),
            static_cast<size_t>(kAborters));
  EXPECT_EQ(runtime.stats().transactions_aborted,
            static_cast<uint64_t>(kAborters));
}

// Producers publish into several buckets while consumers compete for the
// same tuples through actual-first templates (one bucket each) and
// formal-string-first templates (every bucket of the arity). Every tuple
// is consumed exactly once. Each consumption is acknowledged with an
// arity-3 tuple no consumer matches; after the last ack the coordinator
// stops the formal-first consumers with ("stop", -1) (no actual-first
// template matches it), and only once they are gone sends each
// actual-first consumer its own poison, which nothing else can steal.
TEST(RealParallelRuntimeTest, ConcurrentProducersAndMixedConsumers) {
  constexpr int kProducers = 4;
  constexpr int kBuckets = 3;  // one actual-first consumer per bucket
  constexpr int kFormalConsumers = 2;
  constexpr int kPerProducer = 300;
  constexpr int kTotal = kProducers * kPerProducer;
  const Template any_pair =
      MakeTemplate(F(ValueType::kString), F(ValueType::kInt));
  const Template ack =
      MakeTemplate(A("ack"), F(ValueType::kInt), F(ValueType::kInt));
  const Template stopped = MakeTemplate(A("stopped"));

  Runtime runtime(kProducers + kBuckets + kFormalConsumers + 1,
                  RealOptions());
  // consumed[c]: values consumer c took; each written by one thread only.
  std::vector<std::vector<int64_t>> consumed(kBuckets + kFormalConsumers);
  for (int p = 0; p < kProducers; ++p) {
    runtime.Spawn("producer-" + std::to_string(p), [=](ProcessContext& ctx) {
      for (int j = 0; j < kPerProducer; ++j) {
        const int64_t value = int64_t{p} * kPerProducer + j;
        ctx.Out(MakeTuple("work" + std::to_string(value % kBuckets), value));
      }
    });
  }
  auto consumer = [&](int c, Template tmpl) {
    return [&consumed, &ack, c, tmpl](ProcessContext& ctx) {
      for (;;) {
        Tuple t;
        ctx.In(tmpl, &t);
        const int64_t value = GetInt(t, 1);
        if (value < 0) return;
        consumed[static_cast<size_t>(c)].push_back(value);
        ctx.Out(MakeTuple("ack", value, int64_t{c}));
      }
    };
  };
  for (int b = 0; b < kBuckets; ++b) {
    runtime.Spawn(
        "consumer-work" + std::to_string(b),
        consumer(b, MakeTemplate(A("work" + std::to_string(b)),
                                 F(ValueType::kInt))));
  }
  for (int f = 0; f < kFormalConsumers; ++f) {
    const int c = kBuckets + f;
    auto consume = consumer(c, any_pair);
    runtime.Spawn("consumer-formal-" + std::to_string(f),
                  [consume](ProcessContext& ctx) {
                    consume(ctx);
                    ctx.Out(MakeTuple("stopped"));
                  });
  }
  runtime.Spawn("coordinator", [&](ProcessContext& ctx) {
    Tuple t;
    for (int i = 0; i < kTotal; ++i) ctx.In(ack, &t);
    for (int f = 0; f < kFormalConsumers; ++f) {
      ctx.Out(MakeTuple("stop", int64_t{-1}));
    }
    for (int f = 0; f < kFormalConsumers; ++f) ctx.In(stopped, &t);
    for (int b = 0; b < kBuckets; ++b) {
      ctx.Out(MakeTuple("work" + std::to_string(b), int64_t{-1}));
    }
  });
  ASSERT_TRUE(runtime.Run()) << runtime.diagnostic();

  std::vector<int64_t> all;
  for (const auto& values : consumed) {
    all.insert(all.end(), values.begin(), values.end());
  }
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<size_t>(kTotal));
  for (int64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(all[static_cast<size_t>(i)], i);
  }
  EXPECT_TRUE(runtime.space().empty());
}

}  // namespace
}  // namespace fpdm::plinda
