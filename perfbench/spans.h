#ifndef FPDM_PERFBENCH_SPANS_H_
#define FPDM_PERFBENCH_SPANS_H_

// Kernel spans for the traced benchmark run, recorded from outside the
// program: a core::MiningProblem decorator times each pattern evaluation
// (its TaskCost and Goodness calls) and hands the spans to a SpanSink.
//
// Spans are binary SpanRecords. In the process that created the sink they
// are kept in memory and appended to <dir>/<pid>.bin by Flush(); a forked
// kDistributed worker leaves through _exit, so there each span is appended
// to that worker's own <dir>/<pid>.bin as it closes. perfbench/trace_tool.py
// merges the files.

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/mining_problem.h"

namespace fpdm::perfbench {

/// Nanoseconds on the monotonic clock, which every process on the host
/// shares, so spans from forked workers line up with the parent's job
/// stamps.
int64_t NowNs();

/// Kernel ids carried in SpanRecord::kernel.
enum Kernel : int32_t { kKernelArm = 0, kKernelSeqmine = 1 };

/// One kernel call of a pattern evaluation; 32 bytes, little-endian
/// "<qqiiii" on the hosts this runs on.
struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t worker = 0;  // thread id (in-process) or process id (forked)
  int32_t job = 0;
  int32_t kernel = 0;
  int32_t last = 0;  // 1 = the Goodness call that ends the evaluation
};
static_assert(sizeof(SpanRecord) == 32);

class SpanSink {
 public:
  explicit SpanSink(std::string dir);
  ~SpanSink();

  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  /// Job id stamped on spans recorded from now on (inherited by forks).
  void set_job(int32_t job) { job_.store(job); }
  int32_t job() const { return job_.load(); }

  /// Thread-safe; see the file comment for where the record goes.
  void Record(const SpanRecord& span);

  /// Appends the owner process's in-memory spans to <dir>/<pid>.bin and
  /// clears them. Returns false if the write failed.
  bool Flush();

 private:
  const std::string dir_;
  const pid_t owner_;
  std::atomic<int32_t> job_{0};
  std::mutex mu_;
  std::vector<SpanRecord> local_;  // guarded by mu_
  pid_t file_pid_ = -1;            // guarded by mu_
  int fd_ = -1;                    // guarded by mu_
};

/// Forwards every call to `inner`, and records the kernel calls of each
/// evaluated pattern. An evaluation opens at the first TaskCost or Goodness
/// call for a pattern on a thread and ends when Goodness returns; each of
/// its calls is one span, so time the worker spends between them (in the
/// simulator, other processes' turns) is not counted as kernel time. The
/// TaskCost lookups a worker makes after Goodness fall outside it.
class TracedProblem final : public core::MiningProblem {
 public:
  TracedProblem(const core::MiningProblem& inner, SpanSink* sink,
                Kernel kernel)
      : inner_(inner), sink_(sink), kernel_(kernel) {}

  std::vector<core::Pattern> RootPatterns() const override {
    return inner_.RootPatterns();
  }
  std::vector<core::Pattern> ChildPatterns(
      const core::Pattern& pattern) const override {
    return inner_.ChildPatterns(pattern);
  }
  std::vector<core::Pattern> ImmediateSubpatterns(
      const core::Pattern& pattern) const override {
    return inner_.ImmediateSubpatterns(pattern);
  }
  bool IsGood(const core::Pattern& pattern, double goodness) const override {
    return inner_.IsGood(pattern, goodness);
  }
  double Goodness(const core::Pattern& pattern) const override;
  double TaskCost(const core::Pattern& pattern) const override;

 private:
  bool Evaluating(const std::string& key) const;
  void Record(int64_t start_ns, bool last) const;

  const core::MiningProblem& inner_;
  SpanSink* sink_;
  Kernel kernel_;
};

}  // namespace fpdm::perfbench

#endif  // FPDM_PERFBENCH_SPANS_H_
