#ifndef FPDM_PLINDA_NET_CLIENT_H_
#define FPDM_PLINDA_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "plinda/net/wire.h"
#include "plinda/tuple.h"

namespace fpdm::plinda::net {

struct RemoteSpaceOptions {
  /// Server endpoint: "unix:<path>" or "tcp:<host>:<port>" (a bare string
  /// is a Unix-domain path — see plinda/net/endpoint.h).
  std::string endpoint;
  /// PLinda process id this client speaks for; -1 for control connections
  /// (the runtime supervisor), which skip registration and sequencing.
  int32_t pid = -1;
  int32_t incarnation = 0;
  /// How long a call keeps retrying against an unreachable server before
  /// giving up. Covers server crash + checkpoint recovery + restart.
  double reconnect_timeout_s = 20.0;
  /// Initial retry interval. Each failed attempt doubles it (capped at
  /// kBackoffCap) so N workers whose connections died in lockstep don't
  /// hammer a server that is mid-recovery; a successful connect resets it.
  double reconnect_interval_s = 0.02;
};

/// Client side of the wire protocol: the tuple-space stub a distributed
/// worker process talks through.
///
/// Two traffic shapes share one connection:
///  - Synchronous calls (Out/In/...): one request, one reply, as before.
///  - Deferred frames: BatchOut coalesces consecutive non-blocking outs
///    into a single kBatch frame, and DeferXStart/DeferXCommit queue whole
///    transaction frames, none of which touch the wire until the next
///    synchronous call (or an explicit Flush). The flush writes every
///    queued frame plus the synchronous request in ONE writev and reads the
///    replies in order, so a worker's steady-state task loop
///    [xcommit, xstart, blocking in] costs one round trip instead of three.
///
/// Between public calls no bytes are ever in flight: every call returns
/// with the queue empty or untouched, which keeps the retry story simple.
///
/// Fault tolerance: when the server connection dies mid-flush, the client
/// reconnects (re-registering via HELLO with its incarnation) and resends
/// every frame that has not received its reply, with the original sequence
/// numbers; the server's (pid, seq) dedup window turns replayed frames into
/// their cached original replies, so effects stay exactly-once across
/// server crashes even with several frames in flight.
///
/// Deferred frames acknowledge optimistically: a non-kOk reply to one is
/// folded into a sticky deferred error that the next synchronous call
/// returns instead of its own status, so failures surface at the same
/// points the unbatched protocol would surface them (the caller unwinds
/// before observing any later reply).
class RemoteTupleSpace {
 public:
  enum class CallStatus {
    kOk,
    kNotFound,     // inp/rdp miss, xrecover without a continuation
    kCancelled,    // run cancelled (deadlock watchdog) — unwind
    kUnreachable,  // server gone past the reconnect window
    kWireError,    // protocol violation; detail in last_error()
    kPending       // PollStatus/PollPipeline: the reply not here yet
  };

  /// Exponential backoff ceiling for reconnect attempts (seconds).
  static constexpr double kBackoffCap = 0.25;

  explicit RemoteTupleSpace(RemoteSpaceOptions options);
  ~RemoteTupleSpace();

  RemoteTupleSpace(const RemoteTupleSpace&) = delete;
  RemoteTupleSpace& operator=(const RemoteTupleSpace&) = delete;

  /// Establishes the initial connection (retrying with backoff until the
  /// reconnect window closes — the server may still be binding its socket).
  bool Connect();

  /// Clean goodbye: flushes any deferred frames, then tells the server this
  /// client is exiting on purpose, so its disappearance is not treated as a
  /// crash. Best effort.
  void Bye();

  /// Closes the inherited descriptor without any protocol traffic. Used by
  /// freshly forked children to drop the parent's connection.
  void Abandon();

  // --- synchronous calls (flush anything deferred first) ------------------
  CallStatus Out(const Tuple& tuple);
  CallStatus In(const Template& tmpl, bool blocking, bool remove,
                Tuple* result);
  CallStatus Count(const Template& tmpl, uint64_t* count);
  CallStatus XStart();
  /// `participants` (server indexes other than this one whose buckets took
  /// destructive ins inside the transaction) turns the commit into a 2PC
  /// round coordinated by this server; empty = single-server fast path.
  CallStatus XCommit(const std::vector<Tuple>& outs, bool has_continuation,
                     const Tuple& continuation, uint64_t cont_stamp = 0,
                     const std::vector<uint32_t>& participants = {});
  CallStatus XAbort();
  CallStatus XRecover(Tuple* continuation);
  CallStatus TakeAll(std::vector<Tuple>* tuples);
  CallStatus Stats(Reply* reply);
  CallStatus Status(Reply* reply);
  CallStatus Cancel();
  CallStatus Shutdown();

  // --- write coalescing ---------------------------------------------------
  /// Adds a non-blocking sub-op to the open coalescing batch. Nothing is
  /// sent; the batch rides in front of the next synchronous call (or
  /// Flush). Oversized batches are sealed into queued frames automatically,
  /// and a deep queue is flushed inline, so the returned status can report
  /// an earlier deferred failure — callers treat it like the status of a
  /// synchronous out.
  CallStatus BatchOut(const Tuple& tuple);
  CallStatus BatchIn(const Template& tmpl, bool remove);

  /// Sends the open batch + every deferred frame now and waits for the
  /// replies. `items` (optional) receives the per-sub-op results of the
  /// final sealed batch frame, in issue order.
  CallStatus Flush(std::vector<BatchItem>* items = nullptr);

  /// Queues a whole transaction frame behind the open batch; it is flushed
  /// (in order) with the next synchronous call. A non-kOk reply becomes the
  /// sticky deferred error described above.
  CallStatus DeferXStart();
  CallStatus DeferXCommit(const std::vector<Tuple>& outs,
                          bool has_continuation, const Tuple& continuation,
                          uint64_t cont_stamp = 0);

  // --- pipelined control-plane calls --------------------------------------
  /// Sends a STATUS request without waiting for the reply, so a supervisor
  /// event loop can overlap the poll round trip with its other work. Any
  /// other call on this client first drains the in-flight reply.
  CallStatus BeginStatus();
  /// Chaos fault injection (control connections): cuts (start) or restores
  /// (heal) the server's network — see Op::kChaosPartition. Fire-and-poll
  /// like BeginStatus, never a blocking wait: the victim may have died
  /// unplanned (a chaos die point) an instant earlier, and its pre-bound
  /// listener then accepts this connection into a backlog nothing drains —
  /// a blocking read would never return. Gather the reply via PollStatus;
  /// a supervisor that gives up calls Abandon().
  CallStatus BeginChaosPartition(bool start);
  /// Non-blocking check for the reply of the in-flight control frame
  /// (BeginStatus / BeginChaosPartition): kPending while it is still in
  /// flight, otherwise the decoded result.
  CallStatus PollStatus(Reply* reply);
  bool status_inflight() const { return status_inflight_; }

  /// End-of-run drain: pipelines STATS + TAKEALL as one round trip.
  CallStatus Harvest(Reply* stats, std::vector<Tuple>* tuples);

  // --- scatter/gather pipelining ------------------------------------------
  /// Writes `request` now (after flushing anything deferred on this
  /// connection) WITHOUT reading the reply, so a sharded caller can put one
  /// scatter leg on every server before gathering any reply. Replies arrive
  /// in frame order via Finish/PollPipeline. A transport failure resends
  /// the byte-identical unreplied tail (same seqs), so logged ops stay
  /// exactly-once via the server dedup window and unlogged ops (rd, count,
  /// status) re-execute harmlessly.
  CallStatus BeginPipeline(Request& request);
  /// Blocking wait for the oldest outstanding pipelined reply, with the
  /// same reconnect window as a synchronous call.
  CallStatus FinishPipeline(Reply* reply);
  /// Non-blocking probe for the oldest outstanding pipelined reply:
  /// kPending while it has not arrived (reconnecting and re-sending behind
  /// the scenes if the server went away).
  CallStatus PollPipeline(Reply* reply);
  /// Retracts this connection's parked blocking rd legs: the server fails
  /// each parked frame with kNotFound (ordered before the unpark ack), so
  /// the gather sees one reply per outstanding frame. Itself pipelined —
  /// expect pipeline_inflight() to grow by one.
  CallStatus Unpark();
  size_t pipeline_inflight() const { return pipeline_.size(); }

  /// Placement map published by the server's HELLO reply (registered
  /// clients only; empty until Connect, or for control connections).
  const std::vector<std::string>& placement() const { return placement_; }
  /// Deferred frames or an open batch waiting for the next flush.
  bool has_deferred() const { return !queued_.empty() || !batch_.empty(); }
  int fd() const { return fd_; }

  // --- wire counters (for benchmarks and RuntimeStats) --------------------
  uint64_t rpc_round_trips() const { return rpc_round_trips_; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t batch_frames_sent() const { return batch_frames_sent_; }
  uint64_t batched_ops_sent() const { return batched_ops_sent_; }
  /// Socket syscalls this client has made (sends, reads, polls). Framed
  /// bytes moved both directions are transport_bytes.
  uint64_t transport_syscalls() const { return transport_syscalls_; }
  uint64_t transport_bytes() const { return bytes_sent_ + bytes_received_; }

  const std::string& last_error() const { return last_error_; }

 private:
  /// A frame queued for the next flush. `capture == nullptr` marks a
  /// deferred frame (reply folded into the sticky deferred error);
  /// otherwise the reply is copied out and its status returned.
  struct PendingFrame {
    std::string framed;
    Reply* capture = nullptr;
  };

  CallStatus Call(Request& request, Reply* reply);
  /// Shared body of the fire-and-poll control calls: flushes anything
  /// deferred, writes one control frame, and marks it in flight for
  /// PollStatus.
  CallStatus BeginControl(Op op, uint32_t flags);
  /// The single wire-touching primitive: seals the open batch, appends the
  /// optional sync request, writes every queued frame in one writev, and
  /// reads one reply per frame in order, reconnecting and resending
  /// unreplied frames on transport failure.
  CallStatus SyncFlush(Request* sync, Reply* sync_reply,
                       std::vector<BatchItem>* items = nullptr);
  /// Moves the open coalescing batch into the queue as one kBatch frame.
  void SealBatch(Reply* capture);
  bool QueueFrame(Request& request, Reply* capture);
  /// Blocks until an in-flight BeginStatus reply arrives (discarded) or the
  /// transport fails; either way no status poll is in flight afterwards.
  void DrainStatus();
  bool EnsureConnected();
  /// Reads one reply frame. Returns false on transport failure (caller
  /// reconnects and retries); sets *wire_error on an undecodable reply
  /// (caller gives up — the stream is garbage).
  bool ReadReply(Reply* reply, bool* wire_error);
  /// Blocking send of all n bytes on fd_; false on a transport failure.
  bool SendAll(const char* data, size_t n);
  void BackoffSleep();
  void CloseFd();
  /// Writes the unwritten tail of pipeline_ in one gathered write (best
  /// effort: a transport failure just closes the fd for the retry path).
  void FlushPipeline();

  RemoteSpaceOptions options_;
  int fd_ = -1;
  FrameReader reader_;
  uint64_t next_seq_ = 0;
  std::deque<PendingFrame> queued_;
  std::deque<std::string> pipeline_;  // framed, unreplied, FIFO
  size_t pipeline_written_ = 0;  // prefix of pipeline_ on the current conn
  std::vector<std::string> placement_;
  /// Structurally unusable endpoint (malformed grammar, a unix path that
  /// cannot fit sun_path): fatal, no point retrying. Detail in last_error_.
  bool endpoint_bad_ = false;
  std::vector<BatchOp> batch_;  // open coalescing batch
  size_t batch_bytes_ = 0;      // rough encoded-size estimate
  CallStatus deferred_error_ = CallStatus::kOk;
  bool status_inflight_ = false;
  double backoff_s_ = 0;
  uint64_t rpc_round_trips_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  uint64_t batch_frames_sent_ = 0;
  uint64_t batched_ops_sent_ = 0;
  uint64_t transport_syscalls_ = 0;
  std::string last_error_;
};

struct ShardedRemoteOptions {
  /// Endpoint of server 0, used to bootstrap: the HELLO reply carries
  /// the full placement map. Superseded by an explicit `placement`.
  std::string endpoint;
  /// Endpoint per server index; empty = learn it from the HELLO reply.
  std::vector<std::string> placement;
  int32_t pid = -1;
  int32_t incarnation = 0;
  double reconnect_timeout_s = 20.0;
  double reconnect_interval_s = 0.02;
};

/// Multi-server tuple-space stub: one pipelined RemoteTupleSpace leg per
/// shard server, with every operation routed by the same (arity, first-key)
/// bucket hash the servers place buckets with (PlacementIndex).
///
///  - Single-bucket ops go straight to the owning leg, riding in front of
///    that leg's deferred frames exactly as in the single-server protocol.
///  - Formal-first templates (no actual first field) become a scatter /
///    gather: one probe leg written to every server back-to-back, replies
///    gathered as a pipeline — one wall-clock round per all-shard op, not N
///    serial round trips. Blocking scatters park a non-destructive rd on
///    every server and retract the losers with kUnpark once one fires.
///  - Transactions span servers via 2PC: the home server — bound by the
///    first destructive in, else pid % N — coordinates the commit. Every
///    leg whose bucket takes a destructive in joins as a participant (an
///    XStart opens the transaction there on first touch), and a commit
///    whose participants all collapse onto the home server stays the
///    single-record fast path with no prepare round. Commit outs for
///    foreign buckets are forwarded server-side (Op::kForward) either way.
///  - XRecover scatters destructively to every server and returns the
///    continuation with the newest stamp, so a respawned worker finds its
///    checkpoint no matter which home server its commits used.
///
/// Reads flush OTHER legs' deferred frames first (read-your-writes across
/// servers); the target leg's queue rides with the read itself.
class ShardedRemoteSpace {
 public:
  using CallStatus = RemoteTupleSpace::CallStatus;

  explicit ShardedRemoteSpace(ShardedRemoteOptions options);

  ShardedRemoteSpace(const ShardedRemoteSpace&) = delete;
  ShardedRemoteSpace& operator=(const ShardedRemoteSpace&) = delete;

  /// Connects leg 0, learns the placement map from its HELLO reply (unless
  /// given explicitly), then connects the remaining legs.
  bool Connect();
  void Bye();
  void Abandon();

  CallStatus Out(const Tuple& tuple);
  CallStatus In(const Template& tmpl, bool blocking, bool remove,
                Tuple* result);
  CallStatus Count(const Template& tmpl, uint64_t* count);
  CallStatus XStart();
  CallStatus XCommit(const std::vector<Tuple>& outs, bool has_continuation,
                     const Tuple& continuation);
  CallStatus XAbort();
  CallStatus XRecover(Tuple* continuation);

  CallStatus BatchOut(const Tuple& tuple);
  CallStatus Flush();
  CallStatus DeferXStart();
  CallStatus DeferXCommit(const std::vector<Tuple>& outs,
                          bool has_continuation, const Tuple& continuation);

  size_t num_servers() const { return legs_.size(); }
  /// Sum of the per-leg wire counters.
  uint64_t rpc_round_trips() const;
  uint64_t bytes_sent() const;
  uint64_t bytes_received() const;
  uint64_t batch_frames_sent() const;
  uint64_t batched_ops_sent() const;
  uint64_t transport_syscalls() const;
  uint64_t transport_bytes() const;
  /// Round trips per leg, indexed by server — RuntimeStats fan-out
  /// observability.
  std::vector<uint64_t> per_server_rpc() const;
  /// Formal-first all-shard operations, and the pipelined gather rounds
  /// they cost. rounds/ops ≈ 1 is the scatter/gather working as designed.
  uint64_t scatter_ops() const { return scatter_ops_; }
  uint64_t scatter_rounds() const { return scatter_rounds_; }
  const std::string& last_error() const { return last_error_; }

 private:
  /// Joins `leg` to the open transaction: binds it as the home server if
  /// none is bound yet, and opens the transaction there (XStart, deferred
  /// or synchronous per the caller's original choice) on first touch.
  CallStatus EnsureParticipant(size_t leg);
  /// Shared commit path. Participants beyond the home server force the 2PC
  /// slow path, which is ALWAYS synchronous — a deferred cross-server
  /// commit pipelined ahead of the next transaction's frames could reach
  /// the coordinator while the decision is still parked and clobber the
  /// re-armed client state.
  CallStatus CommitInternal(const std::vector<Tuple>& outs,
                            bool has_continuation, const Tuple& continuation,
                            bool defer);
  /// Flushes deferred frames on every leg except `except` (SIZE_MAX =
  /// flush all), so a read on one server observes this client's earlier
  /// writes to the others.
  CallStatus FlushOthers(size_t except);
  CallStatus ScatterIn(const Template& tmpl, bool blocking, bool remove,
                       Tuple* result);
  /// One non-blocking probe round across all legs. kOk sets *winner/*t
  /// (preferring `prefer` when it hit, else the lowest server index).
  CallStatus ScatterProbe(const Template& tmpl, size_t prefer,
                          size_t* winner, Tuple* t);
  /// Parks a blocking rd on every leg, waits for the first to fire,
  /// retracts the rest with kUnpark, and drains every leftover reply.
  CallStatus ParkAndWait(const Template& tmpl, size_t* winner, Tuple* t);

  ShardedRemoteOptions options_;
  std::vector<std::unique_ptr<RemoteTupleSpace>> legs_;
  bool txn_open_ = false;
  int home_ = -1;  // first participant = the commit's coordinator
  /// Legs holding an open server-side transaction (destructive ins joined
  /// them). Empty while txn_open_ = the XStart has not reached any server.
  std::set<uint32_t> participants_;
  bool xstart_deferred_ = false;  // open legs with DeferXStart, not XStart
  uint32_t commit_seq_ = 0;   // per-incarnation continuation stamp counter
  uint64_t scatter_ops_ = 0;
  uint64_t scatter_rounds_ = 0;
  std::string last_error_;
};

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_CLIENT_H_
