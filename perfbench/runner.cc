// The repository benchmark's measuring process. Runs one workload as a
// closed loop of mining jobs, one job at a time, checks every job's output
// against a sequential reference computed in setup, and writes the raw
// per-job record to <out>/result.json. perfbench/run.py turns that record
// (and, in traced runs, the span files under <out>/spans) into metrics.
//
//   perfbench_runner --workload apriori-sim|motif-dist|nyucv-dist
//                    --seed N --seconds S --trace 0|1 --out DIR
//                    [--setup-seconds T] [--min-jobs N]
//
// With --trace 1 every second job runs with the kernel wrapped in a span
// recording decorator (spans.h), and the kDistributed workloads also replay
// the worker's wire cycle (wire_replay.h).
//
// The runner pins itself, and so every thread and process a job starts, to
// one CPU. A job's workers then time-share that CPU: job time is the job's
// own work plus its switches, and does not swing with how promptly a
// virtual machine's other CPUs are scheduled and woken.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arm/problem.h"
#include "classify/nyuminer.h"
#include "classify/parallel.h"
#include "core/parallel.h"
#include "core/traversal.h"
#include "data/benchmarks.h"
#include "seqmine/generator.h"
#include "seqmine/problem.h"
#include "spans.h"
#include "wire_replay.h"

extern char** environ;

namespace fpdm::perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "on";
#else
constexpr const char* kSanitizer = "none";
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
  double setup_seconds = 1;
  int min_jobs = 100;
};

// Setup is repeated at least this often, and for at least --setup-seconds;
// setup_s is the median.
constexpr int kMinSetups = 3;

// The job loop stops here even below --min-jobs, so a run ends well within
// the three minutes a benchmark run may take.
constexpr double kMaxLoopSeconds = 120;

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 == 0) return false;  // every flag takes a value
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--setup-seconds") {
      args->setup_seconds = std::atof(value.c_str());
    } else if (key == "--min-jobs") {
      args->min_jobs = std::max(2, std::atoi(value.c_str()));
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out.empty() && args->seconds > 0;
}

// The benchmark's numbers must not depend on the caller's shell: drop the
// runtime's environment overrides and point private state at `state_root`.
void IsolateEnvironment(const std::string& state_root) {
  std::vector<std::string> drop = {"FPDM_SERVER_THREADS", "FPDM_WAL_SYNC"};
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("FPDM_TEST_", 0) == 0) {
      drop.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : drop) ::unsetenv(name.c_str());
  ::setenv("TMPDIR", state_root.c_str(), 1);
}

// Pins the calling thread, and so everything it later starts, to the
// highest-numbered CPU it may run on. Returns that CPU, or -1 if pinning
// failed (the run then goes on unpinned and says so in result.json).
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

// The pinned kDistributed configuration: one single-threaded shard server
// (write-only WAL) on a unix socket, with batching.
void PinDistributed(plinda::RuntimeOptions* runtime) {
  runtime->mode = plinda::ExecutionMode::kDistributed;
  runtime->distributed_servers = 1;
  runtime->distributed_server_threads = 1;
  runtime->distributed_transport = "unix";
  runtime->distributed_batching = true;
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

// What a job reports, beyond its wall time.
struct JobOutcome {
  bool ok = false;
  bool match = false;
  int workers = 0;
  double total_work = 0;
  plinda::RuntimeStats stats;
};

// One workload: rebuilt from scratch by Setup(), then run job after job.
// A seed yields inputs() inputs, and jobs take them in turn, so the job-time
// median describes the workload rather than one draw of its generator.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual int inputs() const = 0;
  virtual bool distributed() const = 0;
  /// Generates every input from `seed`, builds its problem and computes its
  /// sequential reference. Returns the reference computations' seconds.
  virtual double Setup(uint64_t seed) = 0;
  /// Untimed per-job preparation (fresh problem objects).
  virtual void Prepare(int /*input*/) {}
  /// The timed mining job. `sink` non-null = traced job.
  virtual JobOutcome Run(int input, SpanSink* sink) = 0;
  /// Patterns the sequential E-tree traversal tests on `input` (0 when the
  /// workload is not a core::MiningProblem).
  virtual uint64_t reference_patterns_tested(int /*input*/) const {
    return 0;
  }
};

uint64_t InputSeed(uint64_t seed, int input) {
  return seed * 16 + static_cast<uint64_t>(input);
}

bool SameMining(const core::MiningResult& got, const core::MiningResult& ref) {
  return got.good_patterns == ref.good_patterns &&
         got.patterns_tested == ref.patterns_tested;
}

// Runs one load-balanced E-tree job, traced through `sink` when non-null,
// and checks it against `reference`.
JobOutcome MineJob(const core::MiningProblem& problem, Kernel kernel,
                   const core::ParallelOptions& options,
                   const core::MiningResult& reference, SpanSink* sink) {
  std::optional<TracedProblem> traced;
  if (sink != nullptr) traced.emplace(problem, sink, kernel);
  const core::ParallelResult result = core::MineParallel(
      traced ? static_cast<const core::MiningProblem&>(*traced) : problem,
      options);
  JobOutcome out;
  out.ok = result.ok;
  out.match = result.ok && SameMining(result.mining, reference);
  out.workers = result.num_workers;
  out.total_work = result.stats.total_work;
  out.stats = result.stats;
  return out;
}

// apriori-sim: itemset mining on synthetic baskets, in the deterministic
// kSimulated runtime with 4 workers, one pattern per task (load-balanced
// E-tree). kRealParallel is not used: its deadlock watchdog cancels a few
// jobs in a thousand with ok=false when the host is busy (ROADMAP), and a
// benchmark workload must not fail. The generator is shaped so that no
// itemset's support lies near min_support (9%): every noise item is
// frequent (~14%), no pair with a noise item is (<= 5%), and every subset
// of the planted itemset is (>= 20%). The set of tested patterns (2103) is
// then the same for every seed; only the baskets differ.
class AprioriSim final : public Workload {
 public:
  int inputs() const override { return 1; }
  bool distributed() const override { return false; }
  double Setup(uint64_t seed) override {
    arm::BasketConfig config;
    config.num_transactions = 2500;
    config.num_items = 60;
    config.avg_transaction_size = 16;
    config.patterns = {{{3, 17, 29, 41, 58}, 0.2}};
    config.seed = InputSeed(seed, 0);
    problem_ = std::make_unique<arm::ItemsetProblem>(
        arm::GenerateBaskets(config), /*min_support=*/225);
    const int64_t t0 = NowNs();
    reference_ = core::EtreeTraversal(*problem_);
    return Seconds(t0, NowNs());
  }
  JobOutcome Run(int, SpanSink* sink) override {
    core::ParallelOptions options;
    options.strategy = core::Strategy::kLoadBalanced;
    options.execution_mode = plinda::ExecutionMode::kSimulated;
    options.num_workers = 4;
    return MineJob(*problem_, kKernelArm, options, reference_, sink);
  }
  uint64_t reference_patterns_tested(int) const override {
    return reference_.patterns_tested;
  }

 private:
  std::unique_ptr<arm::ItemsetProblem> problem_;
  core::MiningResult reference_;
};

// motif-dist: planted-motif discovery, kDistributed with 3 workers. The
// problem memoizes evaluations, so every job gets a fresh one (built in
// Prepare, outside the job timer).
class MotifDist final : public Workload {
 public:
  int inputs() const override { return 4; }
  bool distributed() const override { return true; }
  double Setup(uint64_t seed) override {
    sequences_.clear();
    references_.clear();
    double reference_s = 0;
    for (int i = 0; i < inputs(); ++i) {
      seqmine::ProteinSetConfig config;
      config.num_sequences = 10;
      config.min_length = 60;  // one length: the pattern count then varies
      config.max_length = 60;  // little from seed to seed
      config.seed = InputSeed(seed, i);
      config.planted = {{"MKWVTFISLLFL", 9, 0.0}, {"HKSEVAHRFK", 7, 0.0}};
      sequences_.push_back(seqmine::GenerateProteinSet(config));
      Prepare(i);
      const int64_t t0 = NowNs();
      references_.push_back(core::EtreeTraversal(*problem_));
      reference_s += Seconds(t0, NowNs());
    }
    problem_.reset();
    return reference_s;
  }
  void Prepare(int input) override {
    problem_ = std::make_unique<seqmine::SequenceMiningProblem>(
        sequences_[static_cast<size_t>(input)],
        seqmine::SequenceMiningConfig{/*min_length=*/4, /*min_occurrence=*/6,
                                      /*max_mutations=*/1});
  }
  JobOutcome Run(int input, SpanSink* sink) override {
    core::ParallelOptions options;
    options.strategy = core::Strategy::kLoadBalanced;
    options.execution_mode = plinda::ExecutionMode::kDistributed;
    options.num_workers = 3;
    PinDistributed(&options.runtime);
    return MineJob(*problem_, kKernelSeqmine, options,
                   references_[static_cast<size_t>(input)], sink);
  }
  uint64_t reference_patterns_tested(int input) const override {
    return references_[static_cast<size_t>(input)].patterns_tested;
  }

 private:
  std::vector<std::vector<std::string>> sequences_;
  std::vector<core::MiningResult> references_;
  std::unique_ptr<seqmine::SequenceMiningProblem> problem_;
};

// nyucv-dist: parallel NyuMiner-CV, one fold per task, kDistributed with 3
// workers; the reference is the sequential TrainNyuMinerCV tree.
class NyuCvDist final : public Workload {
 public:
  int inputs() const override { return 8; }
  bool distributed() const override { return true; }
  double Setup(uint64_t seed) override {
    inputs_.clear();
    double reference_s = 0;
    for (int i = 0; i < inputs(); ++i) {
      data::BenchmarkSpec spec = data::SpecByName("diabetes");
      spec.rows = 4000;
      spec.seed = InputSeed(seed, i);
      Input input{data::GenerateBenchmark(spec), {}, {}, {}};
      input.rows = input.data.AllRows();
      input.options.cv_folds = 8;
      input.options.seed = spec.seed;
      const int64_t t0 = NowNs();
      input.reference = classify::TrainNyuMinerCV(input.data, input.rows,
                                                  input.options, nullptr)
                            .Serialize();
      reference_s += Seconds(t0, NowNs());
      inputs_.push_back(std::move(input));
    }
    return reference_s;
  }
  JobOutcome Run(int index, SpanSink*) override {
    const Input& input = inputs_[static_cast<size_t>(index)];
    classify::ParallelExecOptions exec;
    exec.num_workers = 3;
    exec.execution_mode = plinda::ExecutionMode::kDistributed;
    PinDistributed(&exec.runtime);
    const classify::ParallelTreeResult result = classify::ParallelNyuMinerCV(
        input.data, input.rows, input.options, exec);
    JobOutcome out;
    out.ok = result.ok;
    out.match = result.ok && result.tree.Serialize() == input.reference;
    out.workers = exec.num_workers;
    out.total_work = result.total_work;
    out.stats = result.stats;
    return out;
  }

 private:
  struct Input {
    classify::Dataset data;
    std::vector<int> rows;
    classify::NyuMinerOptions options;
    std::string reference;
  };
  std::vector<Input> inputs_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "apriori-sim") return std::make_unique<AprioriSim>();
  if (name == "motif-dist") return std::make_unique<MotifDist>();
  if (name == "nyucv-dist") return std::make_unique<NyuCvDist>();
  return nullptr;
}

// --- result.json -----------------------------------------------------------

std::string Num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string NumList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += Num(values[i]);
  }
  return out + "]";
}

struct JobRecord {
  int32_t id = 0;
  bool warmup = false;
  bool traced = false;
  int input = 0;
  uint64_t expected_tasks = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  JobOutcome outcome;
};

std::string JobJson(const JobRecord& job) {
  const JobOutcome& o = job.outcome;
  const plinda::RuntimeStats& s = o.stats;
  std::ostringstream out;
  out << "{\"id\":" << job.id << ",\"warmup\":" << (job.warmup ? 1 : 0)
      << ",\"traced\":" << (job.traced ? 1 : 0) << ",\"input\":" << job.input
      << ",\"expected_tasks\":" << job.expected_tasks
      << ",\"start_ns\":" << job.start_ns << ",\"end_ns\":" << job.end_ns
      << ",\"ok\":" << (o.ok ? 1 : 0) << ",\"match\":" << (o.match ? 1 : 0)
      << ",\"workers\":" << o.workers
      << ",\"total_work\":" << Num(o.total_work)
      << ",\"tuple_ops\":" << s.tuple_ops
      << ",\"cross_shard_ops\":" << s.cross_shard_ops
      << ",\"txn_committed\":" << s.transactions_committed
      << ",\"txn_aborted\":" << s.transactions_aborted
      << ",\"rpc_calls\":" << s.rpc_calls
      << ",\"bytes_on_wire\":" << s.bytes_on_wire
      << ",\"batch_frames\":" << s.batch_frames
      << ",\"wal_appends\":" << s.wal_group_commits
      << ",\"wal_bytes\":" << s.wal_synced_bytes
      << ",\"transport_syscalls\":" << s.transport_syscalls
      << ",\"checkpoints\":" << s.server_checkpoints << "}";
  return out.str();
}

double MaxRssMb(int who) {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (::getrusage(who, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out DIR [--setup-seconds T] "
                 "[--min-jobs N]\n");
    return 2;
  }
  if (!kOptimized || std::strcmp(kSanitizer, "none") != 0) {
    std::fprintf(stderr,
                 "perfbench_runner: refusing to measure an unoptimized or "
                 "sanitized build\n");
    return 2;
  }
  const int cpu = PinToOneCpu();
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  namespace fs = std::filesystem;
  const std::string state_root = args.out + "/state";
  const std::string span_dir = args.out + "/spans";
  std::error_code ec;
  fs::create_directories(state_root, ec);
  fs::create_directories(span_dir, ec);
  IsolateEnvironment(state_root);

  std::vector<double> setup_s;
  std::vector<double> reference_s;
  const int64_t setup_start = NowNs();
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         Seconds(setup_start, NowNs()) < args.setup_seconds) {
    workload = MakeWorkload(args.workload);
    const int64_t t0 = NowNs();
    reference_s.push_back(workload->Setup(args.seed));
    setup_s.push_back(Seconds(t0, NowNs()));
  }

  // One untimed warm-up job (thread stacks, page cache, allocator), then
  // the closed loop: at least --seconds and at least --min-jobs timed jobs,
  // so that job_s.tail is always p90, but never past kMaxLoopSeconds.
  SpanSink sink(span_dir);
  std::vector<JobRecord> jobs;
  bool flushed = true;
  const int64_t loop_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t cap_ns = static_cast<int64_t>(kMaxLoopSeconds * 1e9);
  int64_t loop_start = 0;
  for (int n = -1;; ++n) {
    if (n == 0) loop_start = NowNs();
    if (n > 0) {
      const int64_t elapsed = NowNs() - loop_start;
      if ((elapsed >= loop_ns && n >= args.min_jobs) || elapsed >= cap_ns) {
        break;
      }
    }
    JobRecord job;
    job.id = static_cast<int32_t>(jobs.size());
    job.warmup = n < 0;
    job.traced = args.trace && n >= 0 && n % 2 == 1;
    job.input = n < 0 ? 0 : (n / 2) % workload->inputs();
    job.expected_tasks = workload->reference_patterns_tested(job.input);
    workload->Prepare(job.input);
    sink.set_job(job.id);
    job.start_ns = NowNs();
    job.outcome = workload->Run(job.input, job.traced ? &sink : nullptr);
    job.end_ns = NowNs();
    if (job.traced) flushed = sink.Flush() && flushed;
    jobs.push_back(job);
  }

  WireReplayResult replay;
  if (args.trace && workload->distributed()) {
    replay = ReplayWorkerCycle(state_root, /*server_starts=*/5,
                               /*cycles_per_server=*/600);
    if (!replay.ok) {
      std::fprintf(stderr, "perfbench_runner: wire replay failed: %s\n",
                   replay.error.c_str());
    }
  }

  std::ofstream out(args.out + "/result.json");
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"sanitizer\":\"" << kSanitizer << "\""
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu\":" << cpu << ",\"cpus\":"
      << (cpu >= 0 ? 1u : std::thread::hardware_concurrency())
      << ",\"setup_s\":" << NumList(setup_s)
      << ",\"reference_s\":" << NumList(reference_s)
      << ",\"inputs\":" << workload->inputs()
      << ",\"distributed\":" << (workload->distributed() ? 1 : 0)
      << ",\"spans_flushed\":" << (flushed ? 1 : 0)
      << ",\"replay_ok\":" << (replay.ok ? 1 : 0)
      << ",\"server_start_s\":" << NumList(replay.server_start_s)
      << ",\"cycle_us\":" << NumList(replay.cycle_us)
      << ",\"peak_rss_self_mb\":" << Num(MaxRssMb(RUSAGE_SELF))
      << ",\"peak_rss_children_mb\":" << Num(MaxRssMb(RUSAGE_CHILDREN))
      << ",\"jobs\":[";
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (i > 0) out << ",\n";
    out << JobJson(jobs[i]);
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s/result.json\n",
                 args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fpdm::perfbench

int main(int argc, char** argv) { return fpdm::perfbench::Main(argc, argv); }
