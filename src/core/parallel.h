#ifndef FPDM_CORE_PARALLEL_H_
#define FPDM_CORE_PARALLEL_H_

#include <string>
#include <utility>
#include <vector>

#include "core/mining_problem.h"
#include "plinda/chaos.h"
#include "plinda/runtime.h"

namespace fpdm::core {

/// Parallelization strategies of the thesis.
enum class Strategy {
  /// Parallel E-dag traversal (PLED, §3.2.2): the master enforces the E-dag
  /// visiting rule — a pattern becomes a task only once all its immediate
  /// subpatterns are known good — so exactly the optimal set of patterns is
  /// tested, at the price of level synchronization through the master.
  kPled,
  /// Optimistic parallel E-tree traversal (Fig 4.4/4.5): one task per
  /// initial-level pattern; each worker traverses its whole subtree locally.
  /// Minimal communication, no load balancing.
  kOptimistic,
  /// Load-balanced parallel E-tree traversal (PLET, §3.3.3 / Fig 4.6/4.7):
  /// workers evaluate one pattern per task and push child tasks back into
  /// tuple space, so idle workers can help with any hot branch.
  kLoadBalanced,
  /// The hybrid of §3.3.4: run PLED for the first levels (maximum pruning
  /// while the frontier is small), then switch to load-balanced E-tree
  /// traversal (no synchronization once tasks are plentiful).
  kHybrid,
};

const char* StrategyName(Strategy strategy);

/// Configuration of a parallel mining run on the simulated NOW.
struct ParallelOptions {
  Strategy strategy = Strategy::kLoadBalanced;

  /// Execution backend: deterministic virtual-time simulator (default),
  /// real multicore threads (kRealParallel), or forked OS processes talking
  /// to a tuple-space server process (kDistributed). The mining result is
  /// bit-identical in all modes; completion_time is virtual seconds for the
  /// simulator, elapsed wall seconds otherwise. Fault injection
  /// (`failures` / `fault_plan`) needs the simulator or kDistributed —
  /// distributed fault times are wall seconds since Run().
  plinda::ExecutionMode execution_mode = plinda::ExecutionMode::kSimulated;

  /// Number of worker processes; each runs on its own machine (the master
  /// shares machine 0 with worker 0, matching the paper's setup where the
  /// mostly-blocked master does not get a dedicated workstation).
  int num_workers = 4;

  /// E-tree level at which the master emits the initial tasks (1 = top-level
  /// patterns). Levels below are evaluated by the master itself.
  int initial_level = 1;

  /// Adaptive master (§4.3.2): pick initial_level = 2 when num_workers >=
  /// adaptive_threshold, else 1.
  bool adaptive_master = false;
  int adaptive_threshold = 6;

  /// For kHybrid: levels up to this bound run under PLED discipline.
  int hybrid_switch_level = 2;

  /// Virtual seconds per TaskCost work unit (benches calibrate this so the
  /// sequential baselines land near the paper's wall-clock times).
  double seconds_per_work_unit = 1.0;

  /// Virtual-machine failures to inject: (machine index, virtual time).
  /// Machine 0 hosts the master; see DESIGN.md on master fault tolerance.
  std::vector<std::pair<int, double>> failures;

  /// Seeded chaos schedule (machine and tuple-space-server faults) applied
  /// on top of `failures`. See plinda/chaos.h; generate with
  /// GenerateFaultPlan and leave machine 0 spared (the master does not
  /// commit continuations).
  plinda::FaultPlan fault_plan;

  plinda::RuntimeOptions runtime;
};

/// Outcome of a parallel run: the mining result plus simulator telemetry.
struct ParallelResult {
  MiningResult mining;
  /// Virtual completion time of the whole program (master included). In
  /// kRealParallel mode this equals wall_time.
  double completion_time = 0;
  /// Elapsed wall seconds of the run (both modes; the scaling benchmarks
  /// read this in kRealParallel mode).
  double wall_time = 0;
  plinda::RuntimeStats stats;
  int num_workers = 0;
  bool ok = false;  // false on simulated deadlock (protocol bug)
  /// Why the run failed (Runtime::diagnostic()): blocked processes and
  /// their templates, protocol errors. Empty when ok.
  std::string diagnostic;
};

/// Runs the parallel data mining virtual machine for `problem` on a
/// simulated network of workstations.
ParallelResult MineParallel(const MiningProblem& problem,
                            const ParallelOptions& options);

}  // namespace fpdm::core

#endif  // FPDM_CORE_PARALLEL_H_
