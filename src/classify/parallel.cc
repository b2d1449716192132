#include "classify/parallel.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

namespace fpdm::classify {

namespace {

using plinda::A;
using plinda::F;
using plinda::GetDouble;
using plinda::GetInt;
using plinda::GetString;
using plinda::MakeTemplate;
using plinda::MakeTuple;
using plinda::ProcessContext;
using plinda::Tuple;
using plinda::ValueType;

std::string JoinDoubles(const std::vector<double>& values) {
  std::ostringstream os;
  os.precision(17);
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ' ';
    os << values[i];
  }
  return os.str();
}

std::vector<double> SplitDoubles(const std::string& text) {
  std::istringstream is(text);
  std::vector<double> values;
  double v;
  while (is >> v) values.push_back(v);
  return values;
}

void ApplyFailures(plinda::Runtime* runtime, const ParallelExecOptions& exec) {
  for (const auto& [machine, time] : exec.failures) {
    runtime->ScheduleFailure(machine, time);
  }
  plinda::InstallFaultPlan(runtime, exec.fault_plan);
}

plinda::RuntimeOptions RuntimeOptionsFor(const ParallelExecOptions& exec) {
  plinda::RuntimeOptions options = exec.runtime;
  options.mode = exec.execution_mode;
  return options;
}

}  // namespace

ParallelTreeResult ParallelNyuMinerCV(const Dataset& data,
                                      const std::vector<int>& rows,
                                      const NyuMinerOptions& options,
                                      const ParallelExecOptions& exec) {
  // Folds < 2 degenerate to growing the (unpruned) main tree, matching
  // GrowWithCostComplexityCv.
  const int folds = options.cv_folds >= 2 ? options.cv_folds : 0;
  // Fold partition computed exactly as the sequential version does, so the
  // parallel run reproduces its result bit for bit. The learning sets live
  // on the shared file system, as PLinda programs assume; the tuples carry
  // only the fold index.
  std::vector<std::vector<int>> fold_rows;
  if (folds >= 2) {
    util::Rng rng(options.seed);
    fold_rows = StratifiedFolds(data, rows, folds, &rng);
  }

  GrowthOptions growth;
  growth.splitter = MakeNyuSplitter(options.splitter);
  growth.min_split_rows = options.min_split_rows;
  growth.max_depth = options.max_depth;

  ParallelTreeResult result;
  plinda::Runtime runtime(exec.num_workers, RuntimeOptionsFor(exec));
  ApplyFailures(&runtime, exec);
  const double spw = exec.seconds_per_work_unit;
  // kDistributed forks the processes, so writes to the shared variables
  // below are lost: the tree, the master's work, and the per-fold work come
  // back as tuples instead, published inside the task transactions so they
  // stay exactly-once under faults.
  const bool dist =
      exec.execution_mode == plinda::ExecutionMode::kDistributed;

  // Shared state. Work and per-alpha error vectors are recorded per fold
  // (each fold is one task, claimed by exactly one worker at a time), so the
  // indexed writes are race-free even when the workers run concurrently in
  // kRealParallel mode, and the driver folds them in index order — float
  // sums come out bit-identical in both execution modes.
  double master_work = 0;
  std::vector<double> fold_work(static_cast<size_t>(std::max(folds, 1)), 0.0);
  DecisionTree final_tree;

  runtime.SpawnOn("master", 0, [&](ProcessContext& ctx) {
    ctx.XStart();
    for (int v = 0; v < folds; ++v) ctx.Out(MakeTuple("learning_set", v));
    ctx.XCommit();

    // Build the main tree while the workers grow the auxiliary trees.
    double work = 0;
    DecisionTree main_tree = DecisionTree::Grow(data, rows, growth, &work);
    master_work += work;
    ctx.Compute(work * spw);
    const std::vector<double> alphas = CostComplexityAlphas(main_tree);
    const std::vector<double> probes = GeometricMidpoints(alphas);
    ctx.XStart();
    ctx.Out(MakeTuple("alphas", JoinDoubles(probes)));
    ctx.XCommit();

    // Collect the per-fold error vectors keyed by fold index, then fold them
    // in fold order — not arrival order, which is scheduling-dependent in
    // kRealParallel mode. This matches the sequential fold loop of
    // GrowWithCostComplexityCv bit for bit.
    std::vector<std::vector<double>> fold_errors(static_cast<size_t>(folds));
    for (int v = 0; v < folds; ++v) {
      ctx.XStart();
      Tuple reply;
      ctx.In(MakeTemplate(A("alpha_list"), F(ValueType::kInt),
                          F(ValueType::kString)),
             &reply);
      fold_errors[static_cast<size_t>(GetInt(reply, 1))] =
          SplitDoubles(GetString(reply, 2));
      ctx.XCommit();
    }
    std::vector<double> cv_errors(probes.size(), 0.0);
    for (const std::vector<double>& errors : fold_errors) {
      for (size_t k = 0; k < cv_errors.size() && k < errors.size(); ++k) {
        cv_errors[k] += errors[k];
      }
    }
    if (folds >= 2) {
      size_t best = 0;
      for (size_t k = 1; k < probes.size(); ++k) {
        if (cv_errors[k] < cv_errors[best] - 1e-12) best = k;
      }
      final_tree = PruneToAlpha(main_tree, probes[best]);
    } else {
      final_tree = std::move(main_tree);
    }

    ctx.XStart();
    if (dist) {
      ctx.Out(MakeTuple("final_tree", final_tree.Serialize()));
      ctx.Out(MakeTuple("master_work", master_work));
    }
    for (int w = 0; w < exec.num_workers; ++w) {
      ctx.Out(MakeTuple("learning_set", -1));
    }
    ctx.XCommit();
  });

  for (int w = 0; w < exec.num_workers; ++w) {
    runtime.SpawnOn("worker-" + std::to_string(w), w, [&](ProcessContext& ctx) {
      for (;;) {
        ctx.XStart();
        Tuple task;
        ctx.In(MakeTemplate(A("learning_set"), F(ValueType::kInt)), &task);
        const int64_t v = GetInt(task, 1);
        if (v < 0) {
          ctx.XCommit();
          return;
        }
        // Learning sample V(v) = L - L_v.
        std::vector<int> train;
        for (int u = 0; u < folds; ++u) {
          if (u == static_cast<int>(v)) continue;
          train.insert(train.end(), fold_rows[static_cast<size_t>(u)].begin(),
                       fold_rows[static_cast<size_t>(u)].end());
        }
        double work = 0;
        DecisionTree aux = DecisionTree::Grow(data, train, growth, &work);
        fold_work[static_cast<size_t>(v)] += work;
        ctx.Compute(work * spw);

        Tuple alphas_tuple;
        ctx.Rd(MakeTemplate(A("alphas"), F(ValueType::kString)), &alphas_tuple);
        const std::vector<double> probes =
            SplitDoubles(GetString(alphas_tuple, 1));
        const std::vector<double> errors = CvErrorsPerAlpha(
            aux, data, fold_rows[static_cast<size_t>(v)], probes);
        ctx.Out(MakeTuple("alpha_list", v, JoinDoubles(errors)));
        if (dist) ctx.Out(MakeTuple("fold_work", v, work));
        ctx.XCommit();
      }
    });
  }

  result.ok = runtime.Run();
  result.diagnostic = runtime.diagnostic();
  result.completion_time = runtime.CompletionTime();
  result.wall_time = runtime.wall_time();
  result.stats = runtime.stats();
  if (dist) {
    Tuple tuple;
    if (runtime.space().TryIn(
            MakeTemplate(A("final_tree"), F(ValueType::kString)), &tuple)) {
      if (auto tree = DecisionTree::Deserialize(GetString(tuple, 1))) {
        final_tree = std::move(*tree);
      }
    }
    if (runtime.space().TryIn(
            MakeTemplate(A("master_work"), F(ValueType::kDouble)), &tuple)) {
      master_work = GetDouble(tuple, 1);
    }
    plinda::Template fold_work_template = MakeTemplate(
        A("fold_work"), F(ValueType::kInt), F(ValueType::kDouble));
    while (runtime.space().TryIn(fold_work_template, &tuple)) {
      fold_work[static_cast<size_t>(GetInt(tuple, 1))] += GetDouble(tuple, 2);
    }
  }
  result.total_work = master_work;
  for (int v = 0; v < folds; ++v) {
    result.total_work += fold_work[static_cast<size_t>(v)];
  }
  result.tree = std::move(final_tree);
  return result;
}

namespace {

// Common scaffold for trial-parallel learners (Parallel C4.5 and Parallel
// NyuMiner-RS): `trials` independent tasks, each producing a tree via
// `run_trial(trial_index, seed, work*)`. Trees are deposited on the shared
// file system (here: a results vector); tuples carry control only.
struct TrialRun {
  std::vector<DecisionTree> trees;
  bool ok = false;
  std::string diagnostic;
  double completion_time = 0;
  double wall_time = 0;
  double total_work = 0;
  plinda::RuntimeStats stats;
};

template <typename TrialFn>
TrialRun RunTrialsInParallel(int trials, uint64_t seed,
                             const ParallelExecOptions& exec,
                             TrialFn run_trial) {
  TrialRun run;
  run.trees.resize(static_cast<size_t>(trials));
  std::vector<uint64_t> seeds(static_cast<size_t>(trials));
  util::Rng rng(seed);
  for (auto& s : seeds) s = rng.Next();

  plinda::Runtime runtime(exec.num_workers, RuntimeOptionsFor(exec));
  ApplyFailures(&runtime, exec);
  // Work is recorded per trial (each trial is claimed by one worker), so the
  // writes are race-free under kRealParallel and the index-order fold below
  // is deterministic. kDistributed forks the workers, so each trial's tree
  // and work come back as a ("trial_tree", t, tree, work) tuple instead,
  // out'ed inside the task transaction for exactly-once under faults.
  std::vector<double> trial_work(static_cast<size_t>(trials), 0.0);
  const bool dist =
      exec.execution_mode == plinda::ExecutionMode::kDistributed;

  runtime.SpawnOn("master", 0, [&](ProcessContext& ctx) {
    ctx.XStart();
    for (int t = 0; t < trials; ++t) ctx.Out(MakeTuple("trial", t));
    ctx.XCommit();
    for (int t = 0; t < trials; ++t) {
      ctx.XStart();
      Tuple done;
      ctx.In(MakeTemplate(A("trial_done"), F(ValueType::kInt)), &done);
      ctx.XCommit();
    }
    ctx.XStart();
    for (int w = 0; w < exec.num_workers; ++w) ctx.Out(MakeTuple("trial", -1));
    ctx.XCommit();
  });

  for (int w = 0; w < exec.num_workers; ++w) {
    runtime.SpawnOn("worker-" + std::to_string(w), w, [&](ProcessContext& ctx) {
      for (;;) {
        ctx.XStart();
        Tuple task;
        ctx.In(MakeTemplate(A("trial"), F(ValueType::kInt)), &task);
        const int64_t t = GetInt(task, 1);
        if (t < 0) {
          ctx.XCommit();
          return;
        }
        double work = 0;
        run.trees[static_cast<size_t>(t)] =
            run_trial(static_cast<int>(t), seeds[static_cast<size_t>(t)], &work);
        trial_work[static_cast<size_t>(t)] += work;
        ctx.Compute(work * exec.seconds_per_work_unit);
        if (dist) {
          ctx.Out(MakeTuple("trial_tree", t,
                            run.trees[static_cast<size_t>(t)].Serialize(),
                            work));
        }
        ctx.Out(MakeTuple("trial_done", t));
        ctx.XCommit();
      }
    });
  }

  run.ok = runtime.Run();
  run.diagnostic = runtime.diagnostic();
  run.completion_time = runtime.CompletionTime();
  run.wall_time = runtime.wall_time();
  run.stats = runtime.stats();
  if (dist) {
    Tuple tuple;
    plinda::Template trial_tree_template =
        MakeTemplate(A("trial_tree"), F(ValueType::kInt),
                     F(ValueType::kString), F(ValueType::kDouble));
    while (runtime.space().TryIn(trial_tree_template, &tuple)) {
      const size_t t = static_cast<size_t>(GetInt(tuple, 1));
      if (t >= run.trees.size()) continue;
      if (auto tree = DecisionTree::Deserialize(GetString(tuple, 2))) {
        run.trees[t] = std::move(*tree);
      }
      trial_work[t] += GetDouble(tuple, 3);
    }
  }
  run.total_work = 0;
  for (double work : trial_work) run.total_work += work;
  return run;
}

}  // namespace

ParallelTreeResult ParallelC45(const Dataset& data,
                               const std::vector<int>& rows,
                               const C45Options& options,
                               const ParallelExecOptions& exec) {
  TrialRun run = RunTrialsInParallel(
      std::max(options.window_trials, 1), options.seed, exec,
      [&](int, uint64_t seed, double* work) {
        return C45WindowTrial(data, rows, options, seed, work);
      });

  ParallelTreeResult result;
  result.ok = run.ok;
  result.diagnostic = std::move(run.diagnostic);
  result.completion_time = run.completion_time;
  result.wall_time = run.wall_time;
  result.total_work = run.total_work;
  result.stats = run.stats;
  // Same selection rule as TrainC45Windowed: fewest training errors, first
  // trial wins ties.
  int best_errors = 0;
  for (DecisionTree& tree : run.trees) {
    if (tree.empty()) continue;
    const int errors = tree.Errors(data, rows);
    if (result.tree.empty() || errors < best_errors) {
      best_errors = errors;
      result.tree = std::move(tree);
    }
  }
  return result;
}

ParallelRsResult ParallelNyuMinerRS(const Dataset& data,
                                    const std::vector<int>& rows,
                                    const NyuMinerOptions& options,
                                    const ParallelExecOptions& exec) {
  TrialRun run = RunTrialsInParallel(
      options.rs_trials, options.seed, exec,
      [&](int, uint64_t seed, double* work) {
        return RsTrialTree(data, rows, options, seed, work);
      });

  ParallelRsResult result;
  result.ok = run.ok;
  result.diagnostic = std::move(run.diagnostic);
  result.completion_time = run.completion_time;
  result.wall_time = run.wall_time;
  result.total_work = run.total_work;
  result.stats = run.stats;
  result.model.trees = std::move(run.trees);
  result.model.rules = BuildRsRules(result.model.trees, data, rows, options);
  return result;
}

}  // namespace fpdm::classify
