// Stress of the kRealParallel backend: the load-balanced miners and
// NyuMiner-CV run with twice as many workers as the host has cores, so
// processes park, get handed tuples and get preempted mid-operation far
// more often than at the worker counts of parallel_equivalence_test.cc.
// Every run must finish (no deadlock verdict), and every result must be
// bit-identical to the deterministic simulator's. A failure prints the
// runtime's diagnostic. The suite is cheap enough to repeat:
//   fpdm_tests --gtest_filter='RealParallelStress*' --gtest_repeat=300

#include <algorithm>
#include <string>
#include <thread>

#include "arm/problem.h"
#include "classify/parallel.h"
#include "core/parallel.h"
#include "data/benchmarks.h"
#include "gtest/gtest.h"
#include "seqmine/generator.h"
#include "seqmine/problem.h"

namespace fpdm {
namespace {

/// 2 x the host's cores, at most 16.
int StressWorkers() {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(16, 2 * cores);
}

void ExpectRealMatchesSimulated(const core::MiningProblem& problem) {
  core::ParallelOptions options;
  options.strategy = core::Strategy::kLoadBalanced;
  options.num_workers = StressWorkers();
  options.execution_mode = plinda::ExecutionMode::kSimulated;
  const core::ParallelResult sim = core::MineParallel(problem, options);
  options.execution_mode = plinda::ExecutionMode::kRealParallel;
  const core::ParallelResult real = core::MineParallel(problem, options);
  ASSERT_TRUE(sim.ok) << sim.diagnostic;
  ASSERT_TRUE(real.ok) << real.diagnostic;
  EXPECT_EQ(real.mining.patterns_tested, sim.mining.patterns_tested);
  EXPECT_EQ(real.mining.total_task_cost, sim.mining.total_task_cost);
  ASSERT_EQ(real.mining.good_patterns.size(), sim.mining.good_patterns.size());
  for (size_t i = 0; i < sim.mining.good_patterns.size(); ++i) {
    const core::GoodPattern& a = sim.mining.good_patterns[i];
    const core::GoodPattern& b = real.mining.good_patterns[i];
    EXPECT_EQ(a.pattern.key, b.pattern.key) << "index " << i;
    EXPECT_EQ(a.pattern.length, b.pattern.length) << "index " << i;
    EXPECT_EQ(a.goodness, b.goodness) << "index " << i;
  }
}

TEST(RealParallelStressTest, LoadBalancedApriori) {
  arm::BasketConfig config;
  config.num_transactions = 150;
  config.num_items = 20;
  config.avg_transaction_size = 6;
  config.patterns = {{{1, 4, 7}, 0.3}, {{2, 5}, 0.4}};
  const arm::ItemsetProblem problem(arm::GenerateBaskets(config),
                                    /*min_support=*/15);
  ExpectRealMatchesSimulated(problem);
}

TEST(RealParallelStressTest, LoadBalancedSeqmine) {
  seqmine::ProteinSetConfig config;
  config.num_sequences = 8;
  config.min_length = 30;
  config.max_length = 40;
  config.seed = 321;
  config.planted = {{"MKWVTF", 5, 0.0}};
  const seqmine::SequenceMiningProblem problem(
      seqmine::GenerateProteinSet(config),
      seqmine::SequenceMiningConfig{/*min_length=*/4, /*min_occurrence=*/5,
                                    /*max_mutations=*/0});
  ExpectRealMatchesSimulated(problem);
}

TEST(RealParallelStressTest, NyuMinerCv) {
  data::BenchmarkSpec spec = data::SpecByName("diabetes");
  spec.rows = 300;
  const classify::Dataset data = data::GenerateBenchmark(spec);
  classify::NyuMinerOptions options;
  options.cv_folds = 4;
  options.seed = 123;
  auto run = [&](plinda::ExecutionMode mode) {
    classify::ParallelExecOptions exec;
    exec.num_workers = StressWorkers();
    exec.execution_mode = mode;
    return classify::ParallelNyuMinerCV(data, data.AllRows(), options, exec);
  };
  const classify::ParallelTreeResult sim =
      run(plinda::ExecutionMode::kSimulated);
  const classify::ParallelTreeResult real =
      run(plinda::ExecutionMode::kRealParallel);
  ASSERT_TRUE(sim.ok) << sim.diagnostic;
  ASSERT_TRUE(real.ok) << real.diagnostic;
  EXPECT_EQ(real.tree.Serialize(), sim.tree.Serialize());
  EXPECT_EQ(real.total_work, sim.total_work);
}

}  // namespace
}  // namespace fpdm
