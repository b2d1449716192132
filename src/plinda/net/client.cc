#include "plinda/net/client.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "plinda/net/endpoint.h"

namespace fpdm::plinda::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Seal the open coalescing batch once it would encode roughly this big, so
/// a single kBatch frame stays far below kMaxFramePayload even for tuples
/// carrying serialized trees.
constexpr size_t kMaxBatchBytes = 2u << 20;
constexpr size_t kMaxBatchOps = 1024;
/// Flush inline once this many frames are queued: the server's per-client
/// dedup window (kDedupWindow = 16) must cover every frame a reconnect can
/// resend, so the queue depth stays well under it.
constexpr size_t kMaxQueuedFrames = 8;

/// Gathered write of every iovec, one syscall per kernel acceptance. The
/// single-writev flush is what makes a multi-frame pipeline cost the same
/// number of syscalls as one unbatched request.
bool WritevAll(int fd, std::vector<iovec> iov, uint64_t* bytes_sent,
               uint64_t* syscalls) {
  size_t idx = 0;
  size_t off = 0;
  while (idx < iov.size()) {
    const iovec save = iov[idx];
    iov[idx].iov_base = static_cast<char*>(save.iov_base) + off;
    iov[idx].iov_len = save.iov_len - off;
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov.data() + idx;
    msg.msg_iovlen = iov.size() - idx;
    if (syscalls != nullptr) ++*syscalls;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    iov[idx] = save;
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (bytes_sent != nullptr) *bytes_sent += static_cast<uint64_t>(w);
    size_t n = static_cast<size_t>(w);
    while (idx < iov.size()) {
      const size_t remaining = iov[idx].iov_len - off;
      if (n < remaining) {
        off += n;
        break;
      }
      n -= remaining;
      off = 0;
      ++idx;
    }
  }
  return true;
}

/// Rough encoded size of a tuple, for the batch-sealing threshold.
size_t RoughTupleBytes(const Tuple& tuple) {
  size_t n = 16;
  for (const Value& v : tuple.fields) {
    n += 28;
    if (const std::string* s = std::get_if<std::string>(&v)) n += s->size();
  }
  return n;
}

RemoteTupleSpace::CallStatus MapWireStatus(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return RemoteTupleSpace::CallStatus::kOk;
    case WireStatus::kNotFound:
      return RemoteTupleSpace::CallStatus::kNotFound;
    case WireStatus::kCancelled:
      return RemoteTupleSpace::CallStatus::kCancelled;
    case WireStatus::kError:
      return RemoteTupleSpace::CallStatus::kWireError;
  }
  return RemoteTupleSpace::CallStatus::kWireError;
}

}  // namespace

RemoteTupleSpace::RemoteTupleSpace(RemoteSpaceOptions options)
    : options_(std::move(options)) {}

RemoteTupleSpace::~RemoteTupleSpace() { CloseFd(); }

void RemoteTupleSpace::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader{};
  pipeline_written_ = 0;  // a fresh connection resends the unreplied tail
}

void RemoteTupleSpace::Abandon() { CloseFd(); }

void RemoteTupleSpace::BackoffSleep() {
  if (backoff_s_ <= 0) backoff_s_ = options_.reconnect_interval_s;
  std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s_));
  backoff_s_ = std::min(backoff_s_ * 2, kBackoffCap);
}

bool RemoteTupleSpace::EnsureConnected() {
  if (fd_ >= 0) return true;
  // A structurally unusable endpoint — malformed grammar, or a unix path
  // that would truncate into the fixed 108-byte sun_path and connect to a
  // nonexistent socket forever — fails fast with a structured error
  // instead of burning the whole reconnect window.
  std::string error;
  if (!EndpointUsable(options_.endpoint, &error)) {
    last_error_ = error;
    endpoint_bad_ = true;
    return false;
  }
  Endpoint endpoint;
  ParseEndpoint(options_.endpoint, &endpoint, nullptr);
  const int fd = ConnectEndpoint(endpoint);
  if (fd < 0) return false;
  if (endpoint.kind == Endpoint::Kind::kTcp) ApplyTcpSocketOptions(fd);
  fd_ = fd;
  reader_ = FrameReader{};
  if (options_.pid < 0) {  // control connections skip HELLO
    backoff_s_ = 0;
    return true;
  }
  Request hello;
  hello.op = Op::kHello;
  hello.pid = options_.pid;
  hello.incarnation = options_.incarnation;
  std::string framed;
  AppendFrame(EncodeRequest(hello), &framed);
  Reply reply;
  bool wire_error = false;
  if (!SendAll(framed.data(), framed.size()) ||
      !ReadReply(&reply, &wire_error) || reply.status != WireStatus::kOk) {
    CloseFd();
    return false;
  }
  placement_ = reply.placement;  // multi-server map, empty pre-PR-5 style
  backoff_s_ = 0;
  return true;
}

bool RemoteTupleSpace::SendAll(const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ++transport_syscalls_;
    // MSG_NOSIGNAL: writing to a crashed server must surface as EPIPE
    // (the reconnect path), not deliver SIGPIPE to the caller.
    const ssize_t w = ::send(fd_, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  bytes_sent_ += n;
  return true;
}

bool RemoteTupleSpace::ReadReply(Reply* reply, bool* wire_error) {
  std::string payload;
  char buf[65536];
  for (;;) {
    const FrameReader::Result result = reader_.Next(&payload);
    if (result == FrameReader::Result::kFrame) break;
    if (result == FrameReader::Result::kError) {
      last_error_ = reader_.error();
      *wire_error = true;
      return false;
    }
    ++transport_syscalls_;
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Feed(buf, static_cast<size_t>(n));
      bytes_received_ += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error: the server went away
  }
  std::string error;
  if (!DecodeReply(payload, reply, &error)) {
    last_error_ = error;
    *wire_error = true;
    return false;
  }
  return true;
}

bool RemoteTupleSpace::QueueFrame(Request& request, Reply* capture) {
  // Sequence every request of a registered client exactly once: resends
  // reuse the same number, which is what the server dedups on.
  if (options_.pid >= 0 && request.seq == 0) request.seq = ++next_seq_;
  request.pid = options_.pid;
  request.incarnation = options_.incarnation;
  const std::string payload = EncodeRequest(request);
  if (payload.size() > kMaxFramePayload) {
    // The server's FrameReader would reject the frame as a corrupt stream;
    // fail the call up front with a structured error instead.
    last_error_ = "request exceeds the frame payload limit";
    if (capture == nullptr && deferred_error_ == CallStatus::kOk) {
      deferred_error_ = CallStatus::kWireError;
    }
    return false;
  }
  PendingFrame frame;
  AppendFrame(payload, &frame.framed);
  frame.capture = capture;
  queued_.push_back(std::move(frame));
  return true;
}

void RemoteTupleSpace::SealBatch(Reply* capture) {
  if (batch_.empty()) return;
  Request request;
  request.op = Op::kBatch;
  request.batch = std::move(batch_);
  batch_.clear();
  batch_bytes_ = 0;
  batch_frames_sent_ += 1;
  batched_ops_sent_ += request.batch.size();
  QueueFrame(request, capture);
}

void RemoteTupleSpace::DrainStatus() {
  if (!status_inflight_) return;
  status_inflight_ = false;
  if (fd_ < 0) return;
  // Control frames (status, chaos) need no reply delivery: kStatus is
  // read-only and re-begun by its poller, and a chaos cut/heal applies
  // server-side whether or not its ack is read. Discarding the reply (or
  // losing it to a dead connection) therefore costs nothing.
  Reply reply;
  bool wire_error = false;
  if (!ReadReply(&reply, &wire_error)) CloseFd();
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::SyncFlush(
    Request* sync, Reply* sync_reply, std::vector<BatchItem>* items) {
  // A sticky deferred failure poisons the client: surface it before putting
  // anything else on the wire, exactly where the unbatched protocol would
  // have surfaced the failed call itself.
  if (deferred_error_ != CallStatus::kOk) {
    queued_.clear();
    batch_.clear();
    batch_bytes_ = 0;
    return deferred_error_;
  }
  DrainStatus();
  // A sync call must not interleave with outstanding pipelined replies
  // (the server answers strictly in frame order); gather leftovers first.
  // Callers retract parked legs before issuing sync calls, so this cannot
  // block on a park.
  while (!pipeline_.empty()) {
    Reply discard;
    const CallStatus status = FinishPipeline(&discard);
    if (status == CallStatus::kUnreachable ||
        status == CallStatus::kWireError) {
      return status;
    }
  }
  Reply batch_reply;
  SealBatch(items != nullptr ? &batch_reply : nullptr);
  Reply local;
  if (sync != nullptr) {
    if (!QueueFrame(*sync, sync_reply != nullptr ? sync_reply : &local)) {
      return CallStatus::kWireError;
    }
  }
  if (queued_.empty()) return CallStatus::kOk;

  CallStatus captured = CallStatus::kOk;
  // The reconnect window is anchored at the moment the transport fails, not
  // at call entry: a blocking in/rd legitimately sits parked server-side for
  // arbitrarily long before a server crash drops the connection, and must
  // still get its full window of reconnect attempts. Each failure of a live
  // connection re-arms the window — the server was reachable until then.
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.reconnect_timeout_s));
  bool deadline_armed = false;
  Clock::time_point deadline{};
  for (;;) {
    if (fd_ >= 0 || EnsureConnected()) {
      // One gathered write for every unreplied frame, then one reply per
      // frame in order. Replied frames leave the queue immediately, so a
      // mid-pipeline transport failure resends exactly the unreplied tail
      // (same seqs — the server's dedup window absorbs any overlap).
      std::vector<iovec> iov;
      iov.reserve(queued_.size());
      for (PendingFrame& f : queued_) {
        iov.push_back(iovec{f.framed.data(), f.framed.size()});
      }
      bool transport_ok =
          WritevAll(fd_, std::move(iov), &bytes_sent_, &transport_syscalls_);
      if (transport_ok) frames_sent_ += queued_.size();
      while (transport_ok && !queued_.empty()) {
        Reply reply;
        bool wire_error = false;
        if (!ReadReply(&reply, &wire_error)) {
          if (wire_error) {
            queued_.clear();
            return CallStatus::kWireError;
          }
          transport_ok = false;
          break;
        }
        PendingFrame frame = std::move(queued_.front());
        queued_.pop_front();
        if (frame.capture == nullptr) {
          // Deferred frame: fold a failure into the sticky error. A
          // kNotFound here is a valid miss (batched inp/rdp), not a fault.
          if (reply.status == WireStatus::kCancelled &&
              deferred_error_ == CallStatus::kOk) {
            deferred_error_ = CallStatus::kCancelled;
          } else if (reply.status == WireStatus::kError) {
            if (deferred_error_ == CallStatus::kOk) {
              deferred_error_ = CallStatus::kWireError;
            }
            last_error_ = reply.error;
          }
        } else {
          if (reply.status == WireStatus::kError) last_error_ = reply.error;
          const CallStatus status = MapWireStatus(reply.status);
          if (captured == CallStatus::kOk) captured = status;
          *frame.capture = std::move(reply);
        }
      }
      if (queued_.empty()) {
        ++rpc_round_trips_;
        if (items != nullptr) *items = std::move(batch_reply.items);
        if (deferred_error_ != CallStatus::kOk) return deferred_error_;
        return captured;
      }
      CloseFd();
      deadline = Clock::now() + window;
      deadline_armed = true;
    } else if (!deadline_armed) {
      deadline = Clock::now() + window;
      deadline_armed = true;
    }
    if (endpoint_bad_) {
      queued_.clear();
      return CallStatus::kWireError;
    }
    if (Clock::now() >= deadline) {
      queued_.clear();  // captures would dangle past this call
      if (last_error_.empty()) last_error_ = "tuple-space server unreachable";
      return CallStatus::kUnreachable;
    }
    BackoffSleep();
  }
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Call(Request& request,
                                                    Reply* reply) {
  return SyncFlush(&request, reply);
}

bool RemoteTupleSpace::Connect() {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.reconnect_timeout_s));
  while (!EnsureConnected()) {
    if (endpoint_bad_ || Clock::now() >= deadline) return false;
    BackoffSleep();
  }
  return true;
}

void RemoteTupleSpace::Bye() {
  DrainStatus();
  if (!queued_.empty() || !batch_.empty()) SyncFlush(nullptr, nullptr);
  if (fd_ < 0) return;
  Request request;
  request.op = Op::kBye;
  request.pid = options_.pid;
  request.incarnation = options_.incarnation;
  std::string framed;
  AppendFrame(EncodeRequest(request), &framed);
  Reply reply;
  bool wire_error = false;
  if (SendAll(framed.data(), framed.size())) {
    ReadReply(&reply, &wire_error);
  }
  CloseFd();
}

// --- write coalescing -----------------------------------------------------

RemoteTupleSpace::CallStatus RemoteTupleSpace::BatchOut(const Tuple& tuple) {
  BatchOp op;
  op.op = Op::kOut;
  op.tuple = tuple;
  batch_bytes_ += RoughTupleBytes(tuple);
  batch_.push_back(std::move(op));
  if (batch_.size() >= kMaxBatchOps || batch_bytes_ >= kMaxBatchBytes) {
    SealBatch(nullptr);
  }
  if (queued_.size() >= kMaxQueuedFrames) return SyncFlush(nullptr, nullptr);
  return deferred_error_;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::BatchIn(const Template& tmpl,
                                                       bool remove) {
  BatchOp op;
  op.op = Op::kIn;
  op.flags = remove ? kInRemove : 0;  // never kInBlocking: batches can't park
  op.tmpl = tmpl;
  batch_bytes_ += 128;
  batch_.push_back(std::move(op));
  if (batch_.size() >= kMaxBatchOps || batch_bytes_ >= kMaxBatchBytes) {
    SealBatch(nullptr);
  }
  if (queued_.size() >= kMaxQueuedFrames) return SyncFlush(nullptr, nullptr);
  return deferred_error_;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Flush(
    std::vector<BatchItem>* items) {
  return SyncFlush(nullptr, nullptr, items);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::DeferXStart() {
  SealBatch(nullptr);
  Request request;
  request.op = Op::kXStart;
  QueueFrame(request, nullptr);
  if (queued_.size() >= kMaxQueuedFrames) return SyncFlush(nullptr, nullptr);
  return deferred_error_;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::DeferXCommit(
    const std::vector<Tuple>& outs, bool has_continuation,
    const Tuple& continuation, uint64_t cont_stamp) {
  SealBatch(nullptr);
  Request request;
  request.op = Op::kXCommit;
  request.outs = outs;
  request.has_continuation = has_continuation;
  request.continuation = continuation;
  request.cont_stamp = cont_stamp;
  QueueFrame(request, nullptr);
  if (queued_.size() >= kMaxQueuedFrames) return SyncFlush(nullptr, nullptr);
  return deferred_error_;
}

// --- pipelined control-plane calls ----------------------------------------

RemoteTupleSpace::CallStatus RemoteTupleSpace::BeginControl(Op op,
                                                            uint32_t flags) {
  DrainStatus();
  if (!queued_.empty() || !batch_.empty()) {
    const CallStatus status = SyncFlush(nullptr, nullptr);
    if (status != CallStatus::kOk) return status;
  }
  if (fd_ < 0 && !EnsureConnected()) return CallStatus::kUnreachable;
  Request request;
  request.op = op;
  request.flags = flags;
  request.pid = options_.pid;
  request.incarnation = options_.incarnation;
  std::string framed;
  AppendFrame(EncodeRequest(request), &framed);
  if (!SendAll(framed.data(), framed.size())) {
    CloseFd();
    return CallStatus::kUnreachable;
  }
  ++frames_sent_;
  status_inflight_ = true;
  return CallStatus::kOk;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::BeginStatus() {
  return BeginControl(Op::kStatus, 0);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::BeginChaosPartition(
    bool start) {
  return BeginControl(Op::kChaosPartition, start ? 1 : 0);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::PollStatus(Reply* reply) {
  if (!status_inflight_) {
    last_error_ = "no status poll in flight";
    return CallStatus::kWireError;
  }
  if (fd_ < 0) {
    status_inflight_ = false;
    return CallStatus::kUnreachable;
  }
  char buf[65536];
  for (;;) {
    std::string payload;
    const FrameReader::Result result = reader_.Next(&payload);
    if (result == FrameReader::Result::kFrame) {
      status_inflight_ = false;
      std::string error;
      if (!DecodeReply(payload, reply, &error)) {
        last_error_ = error;
        return CallStatus::kWireError;
      }
      ++rpc_round_trips_;
      return MapWireStatus(reply->status);
    }
    if (result == FrameReader::Result::kError) {
      status_inflight_ = false;
      last_error_ = reader_.error();
      return CallStatus::kWireError;
    }
    ++transport_syscalls_;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready == 0) return CallStatus::kPending;
    if (ready < 0) {
      if (errno == EINTR) continue;
      CloseFd();
      status_inflight_ = false;
      return CallStatus::kUnreachable;
    }
    ++transport_syscalls_;
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Feed(buf, static_cast<size_t>(n));
      bytes_received_ += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseFd();
    status_inflight_ = false;
    return CallStatus::kUnreachable;
  }
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Harvest(
    Reply* stats, std::vector<Tuple>* tuples) {
  DrainStatus();
  Reply stats_local;
  Request stats_request;
  stats_request.op = Op::kStats;
  if (!QueueFrame(stats_request, stats != nullptr ? stats : &stats_local)) {
    return CallStatus::kWireError;
  }
  Request takeall;
  takeall.op = Op::kTakeAll;
  Reply reply;
  const CallStatus status = SyncFlush(&takeall, &reply);
  if (status == CallStatus::kOk && tuples != nullptr) {
    *tuples = std::move(reply.tuples);
  }
  return status;
}

// --- scatter/gather pipelining --------------------------------------------

void RemoteTupleSpace::FlushPipeline() {
  if (fd_ < 0 || pipeline_written_ >= pipeline_.size()) return;
  std::vector<iovec> iov;
  iov.reserve(pipeline_.size() - pipeline_written_);
  for (size_t i = pipeline_written_; i < pipeline_.size(); ++i) {
    iov.push_back(iovec{pipeline_[i].data(), pipeline_[i].size()});
  }
  const size_t n = iov.size();
  if (!WritevAll(fd_, std::move(iov), &bytes_sent_, &transport_syscalls_)) {
    CloseFd();
    return;
  }
  frames_sent_ += n;
  pipeline_written_ = pipeline_.size();
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::BeginPipeline(
    Request& request) {
  DrainStatus();
  if (!queued_.empty() || !batch_.empty()) {
    const CallStatus status = SyncFlush(nullptr, nullptr);
    if (status != CallStatus::kOk) return status;
  }
  if (options_.pid >= 0 && request.seq == 0) request.seq = ++next_seq_;
  request.pid = options_.pid;
  request.incarnation = options_.incarnation;
  const std::string payload = EncodeRequest(request);
  if (payload.size() > kMaxFramePayload) {
    last_error_ = "request exceeds the frame payload limit";
    return CallStatus::kWireError;
  }
  std::string framed;
  AppendFrame(payload, &framed);
  pipeline_.push_back(std::move(framed));
  // Best-effort immediate write so every scatter leg is on the wire before
  // any gather starts; a failure here is absorbed by the gather's
  // reconnect-and-resend path.
  if (fd_ >= 0 || EnsureConnected()) FlushPipeline();
  return CallStatus::kOk;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::FinishPipeline(Reply* reply) {
  if (pipeline_.empty()) {
    last_error_ = "no pipelined call in flight";
    return CallStatus::kWireError;
  }
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.reconnect_timeout_s));
  bool deadline_armed = false;
  Clock::time_point deadline{};
  for (;;) {
    if (fd_ >= 0 || EnsureConnected()) {
      FlushPipeline();
      if (fd_ >= 0) {
        bool wire_error = false;
        if (ReadReply(reply, &wire_error)) {
          pipeline_.pop_front();
          if (pipeline_written_ > 0) --pipeline_written_;
          // Count one round trip per gather, not per frame: the last reply
          // of the pipeline closes the round.
          if (pipeline_.empty()) ++rpc_round_trips_;
          if (reply->status == WireStatus::kError) last_error_ = reply->error;
          return MapWireStatus(reply->status);
        }
        if (wire_error) {
          pipeline_.clear();
          return CallStatus::kWireError;
        }
        CloseFd();
        deadline = Clock::now() + window;
        deadline_armed = true;
      }
    } else if (!deadline_armed) {
      deadline = Clock::now() + window;
      deadline_armed = true;
    }
    if (endpoint_bad_) {
      pipeline_.clear();
      return CallStatus::kWireError;
    }
    if (Clock::now() >= deadline) {
      pipeline_.clear();
      if (last_error_.empty()) last_error_ = "tuple-space server unreachable";
      return CallStatus::kUnreachable;
    }
    BackoffSleep();
  }
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::PollPipeline(Reply* reply) {
  if (pipeline_.empty()) {
    last_error_ = "no pipelined call in flight";
    return CallStatus::kWireError;
  }
  if (fd_ < 0) {
    // Reconnect (re-registering via HELLO) and re-send the unreplied tail;
    // a parked blocking rd simply re-parks — it is non-destructive and the
    // dead connection's waiter was already purged server-side.
    if (!EnsureConnected()) return CallStatus::kPending;
  }
  FlushPipeline();
  if (fd_ < 0) return CallStatus::kPending;
  char buf[65536];
  for (;;) {
    std::string payload;
    const FrameReader::Result result = reader_.Next(&payload);
    if (result == FrameReader::Result::kFrame) {
      std::string error;
      if (!DecodeReply(payload, reply, &error)) {
        last_error_ = error;
        pipeline_.clear();
        return CallStatus::kWireError;
      }
      pipeline_.pop_front();
      if (pipeline_written_ > 0) --pipeline_written_;
      if (pipeline_.empty()) ++rpc_round_trips_;
      if (reply->status == WireStatus::kError) last_error_ = reply->error;
      return MapWireStatus(reply->status);
    }
    if (result == FrameReader::Result::kError) {
      last_error_ = reader_.error();
      pipeline_.clear();
      return CallStatus::kWireError;
    }
    ++transport_syscalls_;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready == 0) return CallStatus::kPending;
    if (ready < 0) {
      if (errno == EINTR) continue;
      CloseFd();
      return CallStatus::kPending;
    }
    ++transport_syscalls_;
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Feed(buf, static_cast<size_t>(n));
      bytes_received_ += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return CallStatus::kPending;
    }
    CloseFd();  // EOF or hard error: retry on the next poll
    return CallStatus::kPending;
  }
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Unpark() {
  Request request;
  request.op = Op::kUnpark;
  return BeginPipeline(request);
}

// --- synchronous op wrappers ----------------------------------------------

RemoteTupleSpace::CallStatus RemoteTupleSpace::Out(const Tuple& tuple) {
  Request request;
  request.op = Op::kOut;
  request.tuple = tuple;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::In(const Template& tmpl,
                                                  bool blocking, bool remove,
                                                  Tuple* result) {
  Request request;
  request.op = Op::kIn;
  request.tmpl = tmpl;
  request.flags = static_cast<uint8_t>((remove ? kInRemove : 0) |
                                       (blocking ? kInBlocking : 0));
  Reply reply;
  const CallStatus status = Call(request, &reply);
  if (status == CallStatus::kOk && reply.has_tuple && result != nullptr) {
    *result = std::move(reply.tuple);
  }
  return status;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Count(const Template& tmpl,
                                                     uint64_t* count) {
  Request request;
  request.op = Op::kCount;
  request.tmpl = tmpl;
  Reply reply;
  const CallStatus status = Call(request, &reply);
  if (status == CallStatus::kOk && count != nullptr) *count = reply.count;
  return status;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::XStart() {
  Request request;
  request.op = Op::kXStart;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::XCommit(
    const std::vector<Tuple>& outs, bool has_continuation,
    const Tuple& continuation, uint64_t cont_stamp,
    const std::vector<uint32_t>& participants) {
  Request request;
  request.op = Op::kXCommit;
  request.outs = outs;
  request.has_continuation = has_continuation;
  request.continuation = continuation;
  request.cont_stamp = cont_stamp;
  request.participants = participants;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::XAbort() {
  Request request;
  request.op = Op::kXAbort;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::XRecover(Tuple* continuation) {
  Request request;
  request.op = Op::kXRecover;
  Reply reply;
  const CallStatus status = Call(request, &reply);
  if (status == CallStatus::kOk && reply.has_tuple &&
      continuation != nullptr) {
    *continuation = std::move(reply.tuple);
  }
  return status;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::TakeAll(
    std::vector<Tuple>* tuples) {
  Request request;
  request.op = Op::kTakeAll;
  Reply reply;
  const CallStatus status = Call(request, &reply);
  if (status == CallStatus::kOk && tuples != nullptr) {
    *tuples = std::move(reply.tuples);
  }
  return status;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Stats(Reply* reply) {
  Request request;
  request.op = Op::kStats;
  return Call(request, reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Status(Reply* reply) {
  Request request;
  request.op = Op::kStatus;
  return Call(request, reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Cancel() {
  Request request;
  request.op = Op::kCancel;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Shutdown() {
  Request request;
  request.op = Op::kShutdown;
  Reply reply;
  return Call(request, &reply);
}

// --- ShardedRemoteSpace ---------------------------------------------------

namespace {

/// An all-actuals template matching exactly the given tuple, for the
/// claim-at-winner step of a destructive scatter.
Template AllActuals(const Tuple& tuple) {
  Template tmpl;
  tmpl.fields.reserve(tuple.fields.size());
  for (const Value& v : tuple.fields) {
    tmpl.fields.push_back(TemplateField::Actual(v));
  }
  return tmpl;
}

RemoteSpaceOptions LegOptions(const ShardedRemoteOptions& options,
                              std::string endpoint) {
  RemoteSpaceOptions leg;
  leg.endpoint = std::move(endpoint);
  leg.pid = options.pid;
  leg.incarnation = options.incarnation;
  leg.reconnect_timeout_s = options.reconnect_timeout_s;
  leg.reconnect_interval_s = options.reconnect_interval_s;
  return leg;
}

}  // namespace

ShardedRemoteSpace::ShardedRemoteSpace(ShardedRemoteOptions options)
    : options_(std::move(options)) {}

bool ShardedRemoteSpace::Connect() {
  legs_.clear();
  std::vector<std::string> placement = options_.placement;
  size_t next = 0;
  if (placement.empty()) {
    // Bootstrap: connect server 0 and let its HELLO reply name every
    // server. A pre-placement server replies with an empty map — degrade
    // to single-leg mode.
    auto leg0 = std::make_unique<RemoteTupleSpace>(
        LegOptions(options_, options_.endpoint));
    if (!leg0->Connect()) {
      last_error_ = leg0->last_error();
      return false;
    }
    placement = leg0->placement();
    if (placement.empty()) placement.push_back(options_.endpoint);
    legs_.push_back(std::move(leg0));
    next = 1;
  }
  for (size_t k = next; k < placement.size(); ++k) {
    auto leg = std::make_unique<RemoteTupleSpace>(
        LegOptions(options_, placement[k]));
    if (!leg->Connect()) {
      last_error_ = leg->last_error();
      return false;
    }
    legs_.push_back(std::move(leg));
  }
  return true;
}

void ShardedRemoteSpace::Bye() {
  for (auto& leg : legs_) leg->Bye();
}

void ShardedRemoteSpace::Abandon() {
  for (auto& leg : legs_) leg->Abandon();
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::EnsureParticipant(
    size_t leg) {
  if (!txn_open_) return CallStatus::kOk;
  if (home_ < 0) home_ = static_cast<int>(leg);
  if (participants_.insert(static_cast<uint32_t>(leg)).second) {
    // First destructive in on this leg: open the transaction there so its
    // tentative removals are tracked (and, at commit time, so the leg can
    // vote PREPARED in the 2PC round if it is not the home server).
    const CallStatus status = xstart_deferred_ ? legs_[leg]->DeferXStart()
                                               : legs_[leg]->XStart();
    if (status != CallStatus::kOk) {
      last_error_ = legs_[leg]->last_error();
      return status;
    }
  }
  return CallStatus::kOk;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::FlushOthers(
    size_t except) {
  CallStatus worst = CallStatus::kOk;
  for (size_t k = 0; k < legs_.size(); ++k) {
    if (k == except || !legs_[k]->has_deferred()) continue;
    const CallStatus status = legs_[k]->Flush();
    if (status != CallStatus::kOk && worst == CallStatus::kOk) {
      worst = status;
      last_error_ = legs_[k]->last_error();
    }
  }
  return worst;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::Out(const Tuple& tuple) {
  const size_t leg =
      legs_.size() > 1 ? PlacementIndex(BucketKeyFor(tuple), legs_.size())
                       : 0;
  const CallStatus status = legs_[leg]->Out(tuple);
  if (status != CallStatus::kOk) last_error_ = legs_[leg]->last_error();
  return status;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::BatchOut(
    const Tuple& tuple) {
  const size_t leg =
      legs_.size() > 1 ? PlacementIndex(BucketKeyFor(tuple), legs_.size())
                       : 0;
  const CallStatus status = legs_[leg]->BatchOut(tuple);
  if (status != CallStatus::kOk) last_error_ = legs_[leg]->last_error();
  return status;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::Flush() {
  return FlushOthers(SIZE_MAX);
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::In(const Template& tmpl,
                                                      bool blocking,
                                                      bool remove,
                                                      Tuple* result) {
  BucketKeyView key;
  if (legs_.size() == 1 || SingleBucketKeyFor(tmpl, &key)) {
    const size_t leg =
        legs_.size() > 1 ? PlacementIndex(key, legs_.size()) : 0;
    CallStatus status = FlushOthers(leg);
    if (status != CallStatus::kOk) return status;
    if (remove) {
      status = EnsureParticipant(leg);
      if (status != CallStatus::kOk) return status;
    }
    status = legs_[leg]->In(tmpl, blocking, remove, result);
    if (status != CallStatus::kOk) last_error_ = legs_[leg]->last_error();
    return status;
  }
  const CallStatus status = FlushOthers(SIZE_MAX);
  if (status != CallStatus::kOk) return status;
  return ScatterIn(tmpl, blocking, remove, result);
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::ScatterProbe(
    const Template& tmpl, size_t prefer, size_t* winner, Tuple* t) {
  for (size_t k = 0; k < legs_.size(); ++k) {
    Request probe;
    probe.op = Op::kIn;
    probe.tmpl = tmpl;
    probe.flags = 0;  // rdp: non-blocking, non-destructive
    const CallStatus status = legs_[k]->BeginPipeline(probe);
    if (status != CallStatus::kOk) {
      last_error_ = legs_[k]->last_error();
      return status;
    }
  }
  ++scatter_rounds_;
  bool found = false;
  size_t best = SIZE_MAX;
  Tuple best_tuple;
  CallStatus bad = CallStatus::kOk;
  for (size_t k = 0; k < legs_.size(); ++k) {
    Reply reply;
    const CallStatus status = legs_[k]->FinishPipeline(&reply);
    if (status == CallStatus::kOk && reply.has_tuple) {
      // Lowest server index wins, except that the transaction's home
      // server takes precedence — claiming there keeps the txn
      // single-server.
      if (!found || k == prefer) {
        best = k;
        best_tuple = std::move(reply.tuple);
        found = true;
      }
    } else if (status != CallStatus::kOk &&
               status != CallStatus::kNotFound &&
               bad == CallStatus::kOk) {
      bad = status;
      last_error_ = legs_[k]->last_error();
    }
  }
  if (bad != CallStatus::kOk) return bad;
  if (!found) return CallStatus::kNotFound;
  *winner = best;
  *t = std::move(best_tuple);
  return CallStatus::kOk;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::ParkAndWait(
    const Template& tmpl, size_t* winner, Tuple* t) {
  for (size_t k = 0; k < legs_.size(); ++k) {
    Request park;
    park.op = Op::kIn;
    park.tmpl = tmpl;
    park.flags = kInBlocking;  // blocking rd: losers stay retractable
    const CallStatus status = legs_[k]->BeginPipeline(park);
    if (status != CallStatus::kOk) {
      for (size_t j = 0; j < k; ++j) legs_[j]->Unpark();
      for (size_t j = 0; j < k; ++j) {
        while (legs_[j]->pipeline_inflight() > 0) {
          Reply discard;
          const CallStatus drain = legs_[j]->FinishPipeline(&discard);
          if (drain == CallStatus::kUnreachable ||
              drain == CallStatus::kWireError) {
            break;
          }
        }
      }
      last_error_ = legs_[k]->last_error();
      return status;
    }
  }
  ++scatter_rounds_;
  size_t win = SIZE_MAX;
  Reply win_reply;
  CallStatus win_status = CallStatus::kOk;
  std::vector<pollfd> pfds;
  while (win == SIZE_MAX) {
    for (size_t k = 0; k < legs_.size(); ++k) {
      Reply reply;
      const CallStatus status = legs_[k]->PollPipeline(&reply);
      if (status == CallStatus::kPending) continue;
      win = k;
      win_reply = std::move(reply);
      win_status = status;
      break;
    }
    if (win != SIZE_MAX) break;
    pfds.clear();
    for (const auto& leg : legs_) {
      if (leg->fd() >= 0) pfds.push_back(pollfd{leg->fd(), POLLIN, 0});
    }
    if (pfds.empty()) {
      // Every server is mid-restart; nap briefly, the next PollPipeline
      // pass reconnects and re-parks.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    } else {
      ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);
    }
  }
  // Retract the losers, then drain every leftover reply: the parked
  // frame's kNotFound (or its tuple, if it fired in the race — harmless,
  // the park is a non-destructive rd) plus the unpark ack.
  for (size_t k = 0; k < legs_.size(); ++k) {
    if (k != win) legs_[k]->Unpark();
  }
  CallStatus drain_bad = CallStatus::kOk;
  for (size_t k = 0; k < legs_.size(); ++k) {
    if (k == win) continue;
    while (legs_[k]->pipeline_inflight() > 0) {
      Reply reply;
      const CallStatus status = legs_[k]->FinishPipeline(&reply);
      if (status == CallStatus::kUnreachable ||
          status == CallStatus::kWireError) {
        if (drain_bad == CallStatus::kOk) {
          drain_bad = status;
          last_error_ = legs_[k]->last_error();
        }
        break;  // FinishPipeline cleared that leg's pipeline
      }
    }
  }
  if (drain_bad != CallStatus::kOk) return drain_bad;
  if (win_status != CallStatus::kOk) {
    last_error_ = legs_[win]->last_error();
    return win_status;  // typically kCancelled from the watchdog
  }
  if (!win_reply.has_tuple) {
    last_error_ = "parked scatter leg replied without a tuple";
    return CallStatus::kWireError;
  }
  *winner = win;
  *t = std::move(win_reply.tuple);
  return CallStatus::kOk;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::ScatterIn(
    const Template& tmpl, bool blocking, bool remove, Tuple* result) {
  ++scatter_ops_;
  const size_t prefer =
      (remove && txn_open_ && home_ >= 0) ? static_cast<size_t>(home_)
                                          : SIZE_MAX;
  for (;;) {
    size_t winner = SIZE_MAX;
    Tuple t;
    CallStatus status = ScatterProbe(tmpl, prefer, &winner, &t);
    if (status == CallStatus::kNotFound) {
      if (!blocking) return CallStatus::kNotFound;
      status = ParkAndWait(tmpl, &winner, &t);
      if (status != CallStatus::kOk) return status;
    } else if (status != CallStatus::kOk) {
      return status;
    }
    if (!remove) {
      *result = std::move(t);
      return CallStatus::kOk;
    }
    // Claim the winner's exact tuple with a sequenced (exactly-once) inp;
    // a kNotFound means another worker stole it — rescan.
    status = EnsureParticipant(winner);
    if (status != CallStatus::kOk) return status;
    Tuple got;
    status = legs_[winner]->In(AllActuals(t), /*blocking=*/false,
                               /*remove=*/true, &got);
    if (status == CallStatus::kOk) {
      *result = std::move(got);
      return CallStatus::kOk;
    }
    if (status != CallStatus::kNotFound) {
      last_error_ = legs_[winner]->last_error();
      return status;
    }
  }
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::Count(
    const Template& tmpl, uint64_t* count) {
  BucketKeyView key;
  if (legs_.size() == 1 || SingleBucketKeyFor(tmpl, &key)) {
    const size_t leg =
        legs_.size() > 1 ? PlacementIndex(key, legs_.size()) : 0;
    CallStatus status = FlushOthers(leg);
    if (status != CallStatus::kOk) return status;
    status = legs_[leg]->Count(tmpl, count);
    if (status != CallStatus::kOk) last_error_ = legs_[leg]->last_error();
    return status;
  }
  CallStatus status = FlushOthers(SIZE_MAX);
  if (status != CallStatus::kOk) return status;
  ++scatter_ops_;
  for (size_t k = 0; k < legs_.size(); ++k) {
    Request request;
    request.op = Op::kCount;
    request.tmpl = tmpl;
    status = legs_[k]->BeginPipeline(request);
    if (status != CallStatus::kOk) {
      last_error_ = legs_[k]->last_error();
      return status;
    }
  }
  ++scatter_rounds_;
  uint64_t total = 0;
  CallStatus bad = CallStatus::kOk;
  for (size_t k = 0; k < legs_.size(); ++k) {
    Reply reply;
    status = legs_[k]->FinishPipeline(&reply);
    if (status == CallStatus::kOk) {
      total += reply.count;
    } else if (bad == CallStatus::kOk) {
      bad = status;
      last_error_ = legs_[k]->last_error();
    }
  }
  if (bad != CallStatus::kOk) return bad;
  *count = total;
  return CallStatus::kOk;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::XStart() {
  txn_open_ = true;
  home_ = -1;
  participants_.clear();
  xstart_deferred_ = false;
  return CallStatus::kOk;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::DeferXStart() {
  txn_open_ = true;
  home_ = -1;
  participants_.clear();
  xstart_deferred_ = true;
  return CallStatus::kOk;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::CommitInternal(
    const std::vector<Tuple>& outs, bool has_continuation,
    const Tuple& continuation, bool defer) {
  // A transaction that never did a destructive in can commit anywhere:
  // spread the in-free commit load deterministically by pid.
  if (home_ < 0) {
    home_ = legs_.size() > 1
                ? static_cast<int>(static_cast<uint32_t>(options_.pid) %
                                   legs_.size())
                : 0;
  }
  const size_t home = static_cast<size_t>(home_);
  if (participants_.count(static_cast<uint32_t>(home)) == 0 && txn_open_) {
    // No destructive in bound the home leg: open the transaction there so
    // the commit record has a matching XStart.
    const CallStatus status = (defer || xstart_deferred_)
                                  ? legs_[home]->DeferXStart()
                                  : legs_[home]->XStart();
    if (status != CallStatus::kOk) {
      last_error_ = legs_[home]->last_error();
      return status;
    }
  }
  std::vector<uint32_t> others;
  for (uint32_t k : participants_) {
    if (k != static_cast<uint32_t>(home)) others.push_back(k);
  }
  const uint64_t stamp =
      (static_cast<uint64_t>(static_cast<uint32_t>(options_.incarnation))
       << 32) |
      ++commit_seq_;
  txn_open_ = false;
  home_ = -1;
  participants_.clear();
  if (others.empty()) {
    // Fast path: every destructive in landed on the home server — a
    // single-record commit with no prepare round, deferrable as before.
    const CallStatus status =
        defer ? legs_[home]->DeferXCommit(outs, has_continuation,
                                          continuation, stamp)
              : legs_[home]->XCommit(outs, has_continuation, continuation,
                                     stamp);
    if (status != CallStatus::kOk) last_error_ = legs_[home]->last_error();
    return status;
  }
  // 2PC slow path — ALWAYS synchronous, even when the caller deferred: the
  // coordinator parks the reply until the votes decide, and pipelining the
  // next transaction's frames behind a parked commit would let them apply
  // mid-decision. Participant legs must be flushed first so their XStart +
  // destructive ins are server-side before any PREPARE can arrive over the
  // peer channel (a PREPARE racing ahead of them would vote REFUSED and
  // abort a healthy commit).
  CallStatus status = FlushOthers(home);
  if (status != CallStatus::kOk) return status;
  status = legs_[home]->XCommit(outs, has_continuation, continuation, stamp,
                                others);
  if (status != CallStatus::kOk) last_error_ = legs_[home]->last_error();
  return status;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::XCommit(
    const std::vector<Tuple>& outs, bool has_continuation,
    const Tuple& continuation) {
  return CommitInternal(outs, has_continuation, continuation,
                        /*defer=*/false);
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::DeferXCommit(
    const std::vector<Tuple>& outs, bool has_continuation,
    const Tuple& continuation) {
  return CommitInternal(outs, has_continuation, continuation,
                        /*defer=*/true);
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::XAbort() {
  // No atomicity needed to abort: roll back every participant leg
  // independently (each republishes its own tentative ins).
  const std::set<uint32_t> parts = participants_;
  txn_open_ = false;
  home_ = -1;
  participants_.clear();
  CallStatus worst = CallStatus::kOk;
  for (uint32_t k : parts) {
    const CallStatus status = legs_[k]->XAbort();
    if (status != CallStatus::kOk && worst == CallStatus::kOk) {
      worst = status;
      last_error_ = legs_[k]->last_error();
    }
  }
  return worst;
}

ShardedRemoteSpace::CallStatus ShardedRemoteSpace::XRecover(
    Tuple* continuation) {
  CallStatus status = FlushOthers(SIZE_MAX);
  if (status != CallStatus::kOk) return status;
  if (legs_.size() == 1) {
    status = legs_[0]->XRecover(continuation);
    if (status != CallStatus::kOk) last_error_ = legs_[0]->last_error();
    return status;
  }
  // Destructive scatter: every server consumes whatever continuation it
  // holds for this pid; the newest stamp wins. Consuming the stale ones is
  // the point — a crash between two commits on different home servers must
  // not leave an old checkpoint to be recovered twice.
  ++scatter_ops_;
  for (size_t k = 0; k < legs_.size(); ++k) {
    Request request;
    request.op = Op::kXRecover;
    status = legs_[k]->BeginPipeline(request);
    if (status != CallStatus::kOk) {
      last_error_ = legs_[k]->last_error();
      return status;
    }
  }
  ++scatter_rounds_;
  bool found = false;
  uint64_t best_stamp = 0;
  Tuple best;
  CallStatus bad = CallStatus::kOk;
  for (size_t k = 0; k < legs_.size(); ++k) {
    Reply reply;
    status = legs_[k]->FinishPipeline(&reply);
    if (status == CallStatus::kOk && reply.has_tuple) {
      if (!found || reply.cont_stamp >= best_stamp) {
        best_stamp = reply.cont_stamp;
        best = std::move(reply.tuple);
      }
      found = true;
    } else if (status != CallStatus::kOk &&
               status != CallStatus::kNotFound &&
               bad == CallStatus::kOk) {
      bad = status;
      last_error_ = legs_[k]->last_error();
    }
  }
  if (bad != CallStatus::kOk) return bad;
  if (!found) return CallStatus::kNotFound;
  *continuation = std::move(best);
  return CallStatus::kOk;
}

uint64_t ShardedRemoteSpace::rpc_round_trips() const {
  uint64_t n = 0;
  for (const auto& leg : legs_) n += leg->rpc_round_trips();
  return n;
}

uint64_t ShardedRemoteSpace::bytes_sent() const {
  uint64_t n = 0;
  for (const auto& leg : legs_) n += leg->bytes_sent();
  return n;
}

uint64_t ShardedRemoteSpace::bytes_received() const {
  uint64_t n = 0;
  for (const auto& leg : legs_) n += leg->bytes_received();
  return n;
}

uint64_t ShardedRemoteSpace::batch_frames_sent() const {
  uint64_t n = 0;
  for (const auto& leg : legs_) n += leg->batch_frames_sent();
  return n;
}

uint64_t ShardedRemoteSpace::batched_ops_sent() const {
  uint64_t n = 0;
  for (const auto& leg : legs_) n += leg->batched_ops_sent();
  return n;
}

uint64_t ShardedRemoteSpace::transport_syscalls() const {
  uint64_t n = 0;
  for (const auto& leg : legs_) n += leg->transport_syscalls();
  return n;
}

uint64_t ShardedRemoteSpace::transport_bytes() const {
  uint64_t n = 0;
  for (const auto& leg : legs_) n += leg->transport_bytes();
  return n;
}

std::vector<uint64_t> ShardedRemoteSpace::per_server_rpc() const {
  std::vector<uint64_t> per;
  per.reserve(legs_.size());
  for (const auto& leg : legs_) per.push_back(leg->rpc_round_trips());
  return per;
}

}  // namespace fpdm::plinda::net
