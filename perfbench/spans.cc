#include "spans.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <utility>

namespace fpdm::perfbench {

namespace {

// Per-thread state of the pattern evaluation being timed. `pid` and `job`
// detect a state inherited through fork or left over from an earlier job.
struct OpenSpan {
  pid_t pid = -1;
  int32_t job = -1;
  bool open = false;
  std::string key;         // pattern of the open evaluation
  std::string closed_key;  // pattern of the evaluation ended last
};

thread_local OpenSpan t_span;

bool WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

int OpenAppend(const std::string& path) {
  return ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                0644);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanSink::SpanSink(std::string dir)
    : dir_(std::move(dir)), owner_(::getpid()) {}

SpanSink::~SpanSink() {
  if (fd_ >= 0 && file_pid_ == ::getpid()) ::close(fd_);
}

void SpanSink::Record(const SpanRecord& span) {
  const pid_t pid = ::getpid();
  std::lock_guard<std::mutex> lock(mu_);
  if (pid == owner_) {
    local_.push_back(span);
    return;
  }
  if (file_pid_ != pid) {  // first span of this forked worker
    fd_ = OpenAppend(dir_ + "/" + std::to_string(pid) + ".bin");
    file_pid_ = pid;
  }
  if (fd_ >= 0) WriteAll(fd_, &span, sizeof(span));
}

bool SpanSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (local_.empty()) return true;
  const int fd = OpenAppend(dir_ + "/" + std::to_string(owner_) + ".bin");
  bool ok = fd >= 0 && WriteAll(fd, local_.data(),
                                local_.size() * sizeof(SpanRecord));
  if (fd >= 0) ok = ::close(fd) == 0 && ok;
  local_.clear();
  return ok;
}

// True if a call on `key` belongs to a pattern evaluation on this thread,
// opening one if none is open.
bool TracedProblem::Evaluating(const std::string& key) const {
  OpenSpan& s = t_span;
  const pid_t pid = ::getpid();
  const int32_t job = sink_->job();
  if (s.pid != pid || s.job != job) {
    s = OpenSpan();
    s.pid = pid;
    s.job = job;
  }
  if (s.open) return true;
  if (key == s.closed_key) return false;
  s.open = true;
  s.key = key;
  return true;
}

// Records the call that started at `start_ns`; `last` ends the evaluation.
void TracedProblem::Record(int64_t start_ns, bool last) const {
  OpenSpan& s = t_span;
  SpanRecord span;
  span.start_ns = start_ns;
  span.end_ns = NowNs();
  span.worker = static_cast<int32_t>(::gettid());
  span.job = s.job;
  span.kernel = kernel_;
  span.last = last ? 1 : 0;
  if (last) {
    s.open = false;
    s.closed_key = std::move(s.key);
  }
  sink_->Record(span);
}

double TracedProblem::TaskCost(const core::Pattern& pattern) const {
  if (!Evaluating(pattern.key)) return inner_.TaskCost(pattern);
  const int64_t start_ns = NowNs();
  const double cost = inner_.TaskCost(pattern);
  Record(start_ns, /*last=*/false);
  return cost;
}

double TracedProblem::Goodness(const core::Pattern& pattern) const {
  const bool evaluating = Evaluating(pattern.key);
  const int64_t start_ns = NowNs();
  const double goodness = inner_.Goodness(pattern);
  if (evaluating) Record(start_ns, /*last=*/true);
  return goodness;
}

}  // namespace fpdm::perfbench
