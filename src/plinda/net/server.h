#ifndef FPDM_PLINDA_NET_SERVER_H_
#define FPDM_PLINDA_NET_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "plinda/net/wire.h"
#include "plinda/tuple.h"
#include "plinda/tuple_space.h"

namespace fpdm::plinda::net {

struct SpaceServerOptions {
  /// Endpoint the server listens on: "unix:<path>" or "tcp:<host>:<port>"
  /// (a bare string is a Unix-domain path — see plinda/net/endpoint.h).
  /// A TCP port of 0 binds a kernel-assigned port; pair it with
  /// resolved_endpoint_file (or a supervisor-held listen_fd) so clients can
  /// learn the concrete address.
  std::string endpoint;
  /// An already-bound, already-listening socket to serve on instead of
  /// binding `endpoint` (-1 = bind it ourselves). The distributed
  /// supervisor pre-binds every TCP listener with port 0 *before* forking,
  /// so the full placement map is concrete at fork time and a restarted
  /// server re-inherits the same port — tests never race on ports. The fd
  /// is inherited through fork; the server never closes the supervisor's
  /// copy.
  int listen_fd = -1;
  /// If non-empty, the resolved endpoint (after a port-0 TCP bind) is
  /// written here via tmp + rename once the server is listening —
  /// standalone TCP servers publish their concrete address this way.
  std::string resolved_endpoint_file;
  /// If non-empty, ForkServerProcess redirects the child's stderr here
  /// (append mode — restarts share the file). CI keeps these files with the
  /// per-run state dirs so a red chaos seed is debuggable post-hoc.
  std::string stderr_file;
  /// Directory holding the checkpoint and write-ahead log. The server
  /// recovers from whatever it finds there, so restarting with the same
  /// state_dir resumes the crashed server's space exactly.
  std::string state_dir;
  /// Tuple-space shards, routed by the (arity, first-field-key) bucket hash.
  int num_shards = 1;
  /// Logged operations between checkpoints (bounds replay work).
  int checkpoint_every_ops = 256;
  /// Multi-server placement: this server's index and the endpoint of
  /// every shard server, indexed by server index (including this one).
  /// Empty placement = single-server mode, equivalent to {endpoint}.
  /// The placement map is published to clients in the HELLO reply; commit
  /// outs whose bucket PlacementIndex()es to another server are forwarded
  /// there over a server-to-server link (Op::kForward).
  int server_index = 0;
  std::vector<std::string> placement;
  /// Chaos kill points for the 2PC in-doubt window (0 = disabled). Each
  /// fires at most once per state_dir: a marker file written just before
  /// raise(SIGKILL) disables the point across restarts, so the supervisor
  /// sees one planned death instead of a crash loop.
  /// As coordinator: die upon receiving the Nth PREPARE vote, before any
  /// decision is logged — every voted participant is left in-doubt.
  int die_in_doubt_after = 0;
  /// As participant: die right after durably logging the Nth PREPARED
  /// record, before acking the vote to the coordinator.
  int die_after_prepared = 0;
  /// Fault injection for the supervisor's fatal-exit path (0 = disabled):
  /// the Nth WAL append fails as if the disk rejected the write, so the
  /// server stops serving and Serve() returns 1. Unlike the SIGKILL chaos
  /// points this death is an *exit*, which the run supervisor must surface
  /// as a structured kServerDead error rather than retrying forever.
  int wal_fail_after = 0;
  /// Worker threads for request decode/dispatch. 0 = auto: the
  /// FPDM_SERVER_THREADS environment variable if set, else min(4, cores).
  /// 1 = the legacy single-threaded serve loop (every frame handled inline
  /// on the I/O thread, one WAL write per mutation) — bit-identical to the
  /// pre-threading server and the reference for equivalence CI legs.
  int threads = 0;
  /// Threaded mode only: fdatasync each group-commit WAL batch before the
  /// replies it covers are released (durability against power loss, not
  /// just process death). The single-threaded path keeps its historical
  /// buffered-write-only behavior. Overridable via FPDM_WAL_SYNC=0.
  bool wal_sync = true;
  /// Test hook: shrink SO_SNDBUF on accepted client fds and outbound peer
  /// fds to this many bytes (0 = leave the kernel default). Forces replies
  /// and peer forwards through many short writes to exercise the partial-
  /// flush cursor paths.
  int sndbuf_bytes = 0;
};

/// The tuple-space server process of ExecutionMode::kDistributed: owns the
/// sharded space and serves the wire protocol over a Unix-domain socket.
///
/// Threading (threads > 1, the default): an epoll-based I/O thread owns
/// every socket and all frame reassembly; decoded client connections are
/// scheduled strand-style onto a small worker pool (one connection is never
/// on two workers at once, so its frames dispatch in arrival order).
/// Workers decode request payloads outside any lock, compute which
/// bucket stripes the request can touch, and apply under only those
/// stripes' mutexes — an out/in/batch bound to one stripe runs in
/// parallel with traffic on every other stripe. Mutable state is
/// partitioned by the same (arity, first-field-key) bucket hash the
/// placement layer uses: each stripe owns its slice of the space plus the
/// parked waiters bound to its buckets. Control-plane state (client
/// tables' structure, 2PC maps, peer links) sits behind ctrl_mu_, taken
/// only by operations that already hold every stripe. Formal-first
/// scatter probes, multi-stripe batches, 2PC, TakeAll, checkpoints and
/// connection drops take all stripes in ascending index order — a brief
/// quiesce that excludes every fast-path holder. The WAL keeps one global
/// ticket (seq assigned under log_mu_ with the enqueue), so group-commit
/// ordering and crash replay are unchanged; per-stripe apply order always
/// matches log order because the stripe lock is held across
/// append+apply, and entries on different stripes commute on replay.
/// A dedicated log-writer thread group-commits the WAL: appends enqueue an
/// encoded frame and the writer coalesces everything pending into one
/// writev + fdatasync batch; a reply is released to its socket only once
/// the batch containing its entry is durable. With threads == 1 the same
/// epoll loop handles every frame inline, takes no locks, and writes the
/// WAL one append at a time — the legacy single-threaded server,
/// bit-identical by construction. Blocking in/rd requests park
/// server-side in FIFO arrival order (a global ticket across the
/// per-stripe deques) and are satisfied as soon as a publish makes a
/// match available.
///
/// Durability follows the PR-1 fault model: every mutating request is
/// appended (threads == 1) or enqueued (threaded) to the log before it is
/// applied, and acknowledged only after the log write; a checksummed
/// checkpoint every `checkpoint_every_ops` logged entries bounds replay and
/// doubles as a durability barrier for still-unwritten queued entries.
/// Retried requests are deduplicated by (pid, seq) so a client that resends
/// after a server crash gets the cached reply instead of a double-applied
/// op (exactly-once effects).
class SpaceServer {
 public:
  explicit SpaceServer(SpaceServerOptions options);
  ~SpaceServer();

  SpaceServer(const SpaceServer&) = delete;
  SpaceServer& operator=(const SpaceServer&) = delete;

  /// Recovers state, binds the socket, and serves until a SHUTDOWN request.
  /// Returns 0 on clean shutdown, nonzero on a fatal setup error (bad
  /// state_dir, unusable socket path, corrupt checkpoint) or when the
  /// write-ahead log stops accepting appends mid-run — the server exits
  /// rather than acknowledge mutations it cannot make durable.
  int Serve();

 private:
  /// Replies cached per client for dedup of retried requests. A pipelined
  /// client can have several sequenced frames in flight at once (a coalesced
  /// batch + deferred transaction frames + the sync call that flushed them),
  /// and after a server crash it resends every unreplied frame — so the
  /// dedup state must cover a window of recent seqs, not just the latest
  /// one. 16 comfortably exceeds the client's maximum flush depth (~4).
  static constexpr size_t kDedupWindow = 16;

  struct ClientState {
    int32_t incarnation = 0;
    uint64_t last_seq = 0;  // highest seq ever logged for this client
    /// (seq, encoded Reply payload) of the last kDedupWindow logged ops,
    /// newest at the back.
    std::deque<std::pair<uint64_t, std::string>> replies;
    bool txn_open = false;
    std::vector<Tuple> txn_ins;  // tuples to restore if the txn aborts
  };

  /// One reply (or error) framed for the wire, gated on WAL durability:
  /// the I/O thread moves it to the connection's outbuf only once
  /// wal_durable_seq_ has reached `walseq` (0 = no durability dependency,
  /// but still FIFO behind earlier gated replies on the same connection).
  struct PendingOut {
    uint64_t walseq = 0;
    std::string bytes;
  };

  struct Conn {
    int fd = -1;
    // --- I/O-thread-only state ---
    FrameReader reader;
    std::string outbuf;
    size_t outbuf_sent = 0;  // flushed prefix of outbuf (no front-erase)
    bool epoll_out = false;  // EPOLLOUT currently armed for this fd
    // --- written only on this connection's strand while it holds an
    // all-stripes StateLock (HELLO / BYE / peer ops are all full-scope), so
    // plain reads are safe both on the strand and under the full lock ---
    int32_t pid = -1;  // set by HELLO; control connections stay -1
    int32_t incarnation = 0;
    /// Atomic: the partition blackhole path can set it from a fast-path
    /// dispatch while the I/O thread reads it under the full lock.
    std::atomic<bool> saw_bye{false};
    /// True once a peer op (kForward/kPrepare/kDecide/kTxnQuery) arrived on
    /// this connection. Peer links carry no HELLO, so pid stays -1; this
    /// flag lets a chaos partition tell them apart from control conns.
    bool is_peer = false;
    // --- scheduling state, guarded by sched_mu_ ---
    std::deque<std::string> inbox;  // reassembled frames awaiting dispatch
    bool scheduled = false;         // owned by (queued for) a worker
    // --- reply queue, guarded by out_mu (leaf lock) ---
    std::mutex out_mu;
    std::deque<PendingOut> outgoing;
    std::atomic<bool> close_after_flush{false};
  };

  struct Waiter {
    int fd = -1;  // connection the reply goes to
    int32_t pid = -1;
    uint64_t seq = 0;
    Template tmpl;
    bool remove = false;
    /// Global arrival ticket. Waiters are stored per stripe (plus one
    /// formal-first list), and every scan that used to walk the old single
    /// FIFO list now merges the per-stripe deques by ticket — same global
    /// arrival order, observable in reply bytes, so it is load-bearing for
    /// the threads=1 ↔ threads=4 byte-identity guarantee.
    uint64_t ticket = 0;
  };

  /// One lock stripe of the mutable space state: a slice of the bucketed
  /// tuple store plus the parked waiters whose template is pinned to a
  /// bucket of this stripe. Guarded by `mu`; fast-path operations lock only
  /// the stripes they touch. This is also the unit a future elastic
  /// placement migration will drain and hand off.
  struct Stripe {
    std::mutex mu;
    TupleSpace space;
    std::list<Waiter> waiters;  // ticket-ordered (parks serialize on mu)
  };

  /// RAII scope over the striped state. Two shapes:
  ///  - full: every stripe in ascending index order, then ctrl_mu_ — the
  ///    quiesce used by control-plane ops, checkpoints, and the I/O thread;
  ///  - subset: a sorted set of stripe indices, no ctrl_mu_ — the fast path.
  /// No-op while !live_threaded_ (the single-threaded loop and recovery run
  /// the same code lock-free, which keeps threads=1 bit-identical by
  /// construction). Counts acquisitions that had to block into
  /// state_lock_waits_. Debug builds assert the lock order (no nesting, no
  /// ctrl without stripes).
  class StateLock {
   public:
    /// Full scope: all stripes ascending + ctrl_mu_.
    explicit StateLock(SpaceServer* server);
    /// Subset scope: `stripe_indices` must be sorted and deduplicated.
    StateLock(SpaceServer* server, const std::vector<size_t>& stripe_indices);
    ~StateLock();
    StateLock(const StateLock&) = delete;
    StateLock& operator=(const StateLock&) = delete;

   private:
    void LockCounting(std::mutex& mu);
    SpaceServer* server_;
    bool engaged_ = false;  // live_threaded_ at construction
    bool all_ = false;
    std::vector<size_t> subset_;
  };

  /// One message queued on a peer link: a forwarded batch of commit outs
  /// (kForward), a 2PC prepare request (kPrepare), a 2PC decision
  /// (kDecide), or a recovery-time outcome query (kTxnQuery). All ride the
  /// same per-peer fseq/watermark channel, so delivery and replay dedup are
  /// uniform across kinds.
  struct PeerMsg {
    uint64_t fseq = 0;
    Op op = Op::kForward;
    std::vector<Tuple> outs;       // kForward payload
    int32_t txn_pid = -1;          // 2PC transaction identity…
    int32_t txn_incarnation = 0;
    uint64_t txn_seq = 0;
    uint8_t decision = 0;          // kDecide: kTxnCommit / kTxnAbort
    /// Threaded mode: the WAL seq of the entry whose apply enqueued this
    /// message. PumpPeers holds the message back until that entry is
    /// durable, so a peer can never observe (and durably apply) effects of
    /// a log record that a crash of this server would erase. 0 = no
    /// dependency (replayed/restored messages are durable by definition).
    uint64_t walseq = 0;
  };

  /// Outbound server-to-server forwarding state for one peer server (the
  /// entry at our own index stays unused). Commit outs placed on the peer
  /// (and 2PC prepare/decide traffic) are queued here under a monotone
  /// forward sequence number and stay queued until the peer acknowledges
  /// them; a reconnect resends the whole unacked queue from the front with
  /// the original fseqs, and the peer's per-source watermark turns
  /// re-delivery into an ack-only no-op — exactly-once, mirroring the
  /// client's (pid, seq) dedup story.
  struct PeerLink {
    int fd = -1;
    FrameReader reader;
    std::string outbuf;
    size_t outbuf_sent = 0;  // flushed prefix of outbuf (no front-erase)
    bool epoll_out = false;  // EPOLLOUT currently armed for this fd
    /// Messages awaiting the peer's ack, oldest first.
    std::deque<PeerMsg> unacked;
    size_t sent = 0;         // prefix of unacked already on this connection
    uint64_t next_fseq = 0;  // last forward seq assigned to this peer
    uint64_t watermark = 0;  // highest forward seq applied FROM this peer
    std::chrono::steady_clock::time_point next_attempt{};
  };

  /// Full identity of a cross-server transaction: (pid, incarnation, seq of
  /// the coordinator-leg XCOMMIT). Keyed in full because a client's next
  /// transaction — possibly homed on a different coordinator — can prepare
  /// at this participant before the previous one's decision lands.
  using TxnKey = std::tuple<int32_t, int32_t, uint64_t>;

  /// Coordinator side of an in-flight cross-server commit, parked between
  /// the kXPrepare log record and the decision record. Everything except
  /// reply_fd is durable (kXPrepare payload + snapshot) so a restarted
  /// coordinator re-arms the transaction and resends PREPAREs.
  struct CoordTxn {
    int32_t incarnation = 0;
    uint64_t seq = 0;
    std::vector<Tuple> outs;
    bool has_continuation = false;
    Tuple continuation;
    uint64_t cont_stamp = 0;
    std::vector<uint32_t> participants;
    std::set<uint32_t> votes;  // participants that voted PREPARED
    int reply_fd = -1;         // volatile: conn parked on the decision
  };

  /// Participant side: tentative destructive-in effects parked durably by a
  /// kPrepared record until the coordinator's decision arrives (or a
  /// recovery-time kTxnQuery resolves it).
  struct PreparedTxn {
    uint32_t coordinator = 0;
    std::vector<Tuple> ins;  // tuples to republish if the decision is abort
  };

  /// Decided outcome retained until every participant acks its kDecide, so
  /// a participant bouncing mid-delivery can still query the answer.
  struct Decision {
    uint8_t outcome = 0;  // kTxnCommit / kTxnAbort
    std::vector<uint32_t> waiting;  // participants yet to ack the decision
  };

  // --- state recovery ----------------------------------------------------
  bool Recover();
  bool LoadSnapshot(const std::string& path);
  std::string EncodeSnapshot() const;
  bool TakeCheckpoint();
  /// Appends the entry to the write-ahead log. Returns false — and stops the
  /// server (wal_failed_) — when the entry cannot be made durable (log fd
  /// lost, short write, oversized entry): callers must not apply or
  /// acknowledge the mutation in that case, or a recovered server would
  /// disagree with what clients were told.
  bool AppendLog(const LogEntry& entry);
  bool ReplayLog(const std::string& path);

  /// Applies a logged mutation to the space / client tables and returns the
  /// encoded reply payload the client got (or gets). Shared by the live
  /// path and crash replay so both produce identical state.
  std::string ApplyEntry(const LogEntry& entry);

  /// Records `encoded` in the client's dedup window and advances last_seq.
  void CacheReply(ClientState& client, uint64_t seq,
                  const std::string& encoded);

  /// Builds the batched reply (one item per effect, request order) and bumps
  /// the batch counters. Shared by the live path and replay so a retried
  /// kBatch gets a bit-identical cached reply.
  Reply BatchReplyFor(const LogEntry& entry);

  // --- request handling --------------------------------------------------
  void HandleFrame(Conn& conn, std::string_view payload);
  /// The post-decode half of HandleFrame: dispatches one already-decoded
  /// request. Workers run DecodeRequest outside any lock and call this
  /// under a StateLock covering ComputeScope()'s stripe set; the
  /// single-threaded path calls it inline with no locks.
  void DispatchRequest(Conn& conn, const Request& request, bool decode_ok,
                       const std::string& decode_error);
  /// Decides which stripes `request` may touch. Returns true with a sorted,
  /// deduplicated stripe set for the fast-path ops (out / single-bucket
  /// in / all-single-bucket batch / single-bucket count); false means the
  /// request needs the full scope (control-plane ops, formal-first
  /// templates, 2PC, stats, or any traffic while partitioned). Called by
  /// workers outside any lock — this is the scheduler's bucket affinity.
  bool ComputeScope(const Request& request, bool decode_ok,
                    std::vector<size_t>* stripes) const;
  void HandleHello(Conn& conn, const Request& request);
  void HandleIn(Conn& conn, const Request& request);
  void HandleBatch(Conn& conn, const Request& request);
  /// Publish-side waiter wakeup. Under a full StateLock (or single-threaded)
  /// it runs SatisfyAllWaiters() immediately; under a fast-path subset
  /// scope it only marks the dispatch as needing a wakeup pass, and the
  /// worker escalates to a full StateLock after releasing its stripes
  /// (counted in stripe_conflicts_) — waiter satisfaction may consult and
  /// mutate any stripe plus the client tables, so it never runs under a
  /// partial scope.
  void SatisfyWaiters();
  /// Scans every parked waiter in global ticket (arrival) order and
  /// satisfies those whose template now matches. Requires the full scope.
  void SatisfyAllWaiters();
  /// Every parked waiter — per-stripe lists plus the formal list — as
  /// (list, iterator) pairs sorted by ticket: the same global arrival order
  /// the pre-striping server kept in one FIFO list. Requires the full scope
  /// (or single-threaded); callers may erase the iterators they visit.
  std::vector<std::pair<std::list<Waiter>*, std::list<Waiter>::iterator>>
  WaitersByTicket();
  /// Parks a blocking in/rd: on the template's stripe when it is pinned to
  /// a single bucket, else on the formal list (caller then holds the full
  /// scope by construction — formal templates never take the fast path).
  void ParkWaiter(Conn& conn, const Request& request);
  void SendReply(Conn& conn, const Reply& reply);
  void SendEncoded(Conn& conn, const std::string& encoded_reply);
  void SendError(Conn& conn, const std::string& detail);
  /// Drops every connection in `fds` (EOF / error), then crash-aborts the
  /// open transactions of the vanished clients. Two phases on purpose: all
  /// dying connections and their parked waiters leave the tables before any
  /// abort republishes tuples, so a dead client can never consume them.
  void DropConns(const std::vector<int>& fds);
  /// Op::kChaosPartition start: marks every registered-client and peer
  /// connection for a drop WITHOUT the crash-abort (saw_bye — the client is
  /// alive on the far side of the partition, and its open transaction must
  /// survive for the same-incarnation reconnect after the heal). Outbound
  /// peer links are torn down by PumpPeers while partitioned_ holds.
  void StartPartitionDrop();

  // --- sharded space -----------------------------------------------------
  size_t ShardIndexFor(const BucketKeyView& key) const;
  bool FindMatch(const Template& tmpl, Tuple* result, bool remove);
  size_t CountAcrossShards(const Template& tmpl);
  void PublishTuple(Tuple tuple);

  // --- peer forwarding (multi-server placement) --------------------------
  /// Queues commit outs owned by peer `target` under the next forward seq.
  /// Durability rides on the commit's own WAL entry: replay re-assigns the
  /// identical fseq, and the snapshot persists the queues and counters.
  void EnqueueForward(size_t target, std::vector<Tuple> outs);
  /// Connects / resends / flushes every peer link; called once per serve
  /// loop pass. Transport errors drop the link — the unacked queue resends
  /// on the next pass and the peer's watermark dedups.
  void PumpPeers();
  void DropPeer(PeerLink& peer);
  /// Drains ack replies from readable peer link `k`. Each ack retires the
  /// oldest unacked message; 2PC messages dispatch on retirement (a
  /// kPrepare ack carries the participant's vote, a kTxnQuery ack the
  /// queried outcome).
  void ReadPeerAcks(size_t k);
  /// Commit outs queued for other servers but not yet acknowledged there.
  uint64_t ForwardsPending() const;

  // --- cross-server transactions (2PC, presumed abort) --------------------
  /// Queues a PREPARE for the pending txn of `pid` to participant `target`.
  void EnqueuePrepare(uint32_t target, int32_t pid, int32_t incarnation,
                      uint64_t seq);
  /// Queues the decided outcome of `key` to participant `target`.
  void EnqueueDecide(uint32_t target, const TxnKey& key, uint8_t outcome);
  /// Queues a recovery-time outcome query for `key` to its coordinator,
  /// unless an identical query is already waiting on the link.
  void EnqueueTxnQuery(uint32_t target, const TxnKey& key);
  /// Coordinator: logs the decision record (kCommit / kAbort with the
  /// parked payload), applies it, answers the parked client, and fans the
  /// decision out to every participant.
  void DecideTxn(int32_t pid, uint8_t outcome);
  /// Coordinator: participant `participant`'s PREPARE ack came back with a
  /// vote. All yes → decide commit; any refusal → decide abort.
  void OnPrepareVote(size_t participant, const PeerMsg& msg, uint8_t vote);
  /// Fires the per-state_dir one-shot chaos kill point named `marker` by
  /// writing the marker file and raising SIGKILL. No-op if the marker
  /// already exists (the point already fired before a restart).
  void MaybeDieAt(const char* marker);

  // --- threaded serve loop -------------------------------------------------
  bool Threaded() const { return threads_ > 1; }
  /// Worker pool body: pops a runnable connection, drains its inbox —
  /// decode outside any lock, ComputeScope, dispatch under a StateLock over
  /// exactly that stripe set — then handles deferred waiter wakeups and the
  /// checkpoint check after releasing the scope. Repeats.
  void WorkerLoop();
  /// Log-writer body: coalesces queued WAL frames into one writev (+
  /// fdatasync) batch, advances wal_durable_seq_, wakes the I/O thread.
  void LogWriterLoop();
  /// Queues `conn` for a worker if it has frames and is not already owned
  /// by one. Caller holds sched_mu_.
  void ScheduleConnLocked(Conn* conn);
  void WakeIo();
  /// Marks `fd` as needing a flush pass on the I/O thread (replies were
  /// appended off-thread) and wakes it.
  void RequestFlush(int fd);
  /// I/O thread: moves durably-releasable replies from conn.outgoing to
  /// conn.outbuf (FIFO; stops at the first reply whose WAL entry is not yet
  /// durable). Returns true if anything is still gated.
  bool DrainOutgoing(Conn& conn);
  /// I/O thread: writes as much of conn.outbuf as the socket accepts,
  /// advancing the sent-offset cursor. Returns false on a fatal error.
  bool FlushConn(Conn& conn);
  /// Arms / disarms EPOLLOUT to match whether conn has unflushed output.
  void UpdateConnEvents(Conn& conn);

  SpaceServerOptions options_;
  /// The striped space: stripes_.size() == options_.num_shards, routed by
  /// BucketStripeIndex. unique_ptr keeps Stripe (which owns a mutex)
  /// addresses stable. Each stripe's space + waiters are guarded by its mu;
  /// a full StateLock (all stripes ascending) is the quiesce.
  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// Formal-string-first blocking waiters: their template can match any
  /// bucket of its arity, so they park globally. Guarded by the full scope
  /// (parking a formal waiter is always a full-scope op). The count is
  /// atomic so fast-path publishers can cheaply decide whether to escalate.
  std::list<Waiter> formal_waiters_;
  std::atomic<uint64_t> waiter_ticket_{0};  // global arrival order
  std::atomic<uint64_t> waiter_count_{0};   // parked waiters, all lists
  /// Endpoint string per server index; size 1 = single-server (no peers).
  std::vector<std::string> placement_;
  std::vector<PeerLink> peers_;  // indexed by server index; self unused
  /// pid -> (stamp, continuation): stamp = (incarnation<<32)|commit counter,
  /// so an XRecover scatter can pick the newest continuation across servers.
  std::map<int32_t, std::pair<uint64_t, Tuple>> continuations_;
  /// Map *structure* (insert/erase) mutates only under the full scope
  /// (HELLO and recovery); fast paths find() existing entries. A given
  /// ClientState's contents are protected by the pid's client_mu_ slot,
  /// which fast-path dispatches hold for their whole append+apply (see
  /// WorkerLoop) — full-scope holders are excluded from fast paths by the
  /// stripe mutexes themselves.
  std::map<int32_t, ClientState> clients_;
  /// unique_ptr so Conn addresses stay stable while a worker holds one
  /// across map mutations on the I/O thread.
  std::map<int, std::unique_ptr<Conn>> conns_;

  /// Coordinator: in-doubt cross-server commits, keyed by pid (one open
  /// transaction per client at a time).
  std::map<int32_t, CoordTxn> coord_pending_;
  /// Participant: durably prepared transactions awaiting a decision.
  std::map<TxnKey, PreparedTxn> prepared_;
  /// Coordinator: decided outcomes not yet acked by every participant.
  std::map<TxnKey, Decision> decisions_;

  uint64_t epoch_ = 0;  // checkpoint epoch; the log file is log.<epoch>
  int log_fd_ = -1;
  int listen_fd_ = -1;
  /// True while serving on a TCP endpoint: accepted sockets and outbound
  /// peer connects get TCP_NODELAY + SO_KEEPALIVE.
  bool tcp_listener_ = false;
  /// Atomic: bumped by AppendLog from any dispatch scope; workers check it
  /// after releasing their stripes and re-check under a full StateLock
  /// before checkpointing (the quiesce protocol — see TakeCheckpoint).
  std::atomic<int> ops_since_checkpoint_{0};
  std::atomic<bool> cancelled_{false};
  /// Chaos partition (Op::kChaosPartition): while true, every registered
  /// client and peer connection is dropped (without crash-abort — the
  /// clients are alive, merely cut off) and their traffic is blackholed;
  /// control connections stay reachable as the out-of-band heal channel.
  /// Atomic: read by ComputeScope outside any lock (a set flag forces new
  /// dispatches onto the full scope, where the blackhole path runs).
  std::atomic<bool> partitioned_{false};
  std::atomic<bool> stop_{false};
  // Durability lost: stop serving, exit nonzero.
  std::atomic<bool> wal_failed_{false};

  // --- threading machinery (all unused when threads_ == 1) ----------------
  int threads_ = 1;       // resolved worker count (options / env / auto)
  bool wal_sync_ = true;  // resolved from options.wal_sync / FPDM_WAL_SYNC
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: workers / log writer wake the I/O thread
  /// True once Serve() is live in threaded mode; Enqueue* tag peer messages
  /// with the current WAL seq only then (replay-time messages are durable).
  bool live_threaded_ = false;
  /// Control-plane lock: clients_ map structure, continuations_, the 2PC
  /// maps (coord_pending_ / prepared_ / decisions_), peers_, and
  /// formal_waiters_. Only ever taken while holding every stripe (it is the
  /// tail of a full StateLock), so "full scope" == all stripes + ctrl.
  /// Lock order: stripe[i] ascending → ctrl_mu_ → client_mu_[slot] →
  /// log_mu_ → (out_mu | sched_mu_ | flush_mu_ leaf locks).
  std::mutex ctrl_mu_;
  /// Per-client lock striping (slot = pid & 15): a fast-path dispatch for a
  /// registered client holds its slot across the whole dedup-scan + append
  /// + apply + reply-cache, so two connections carrying the same pid (the
  /// reconnect-resend race) serialize their ClientState mutations in WAL
  /// order even when their requests land on different stripes. Full-scope
  /// holders don't need a slot — the stripe mutexes already exclude every
  /// fast path.
  std::array<std::mutex, 16> client_mu_;
  /// Contention telemetry, reported in STATS: StateLock acquisitions that
  /// had to block, and dispatches that could not stay on one stripe (full
  /// scope with >1 stripe configured, multi-stripe batches, or a publish
  /// that had to escalate to wake parked waiters).
  std::atomic<uint64_t> state_lock_waits_{0};
  std::atomic<uint64_t> stripe_conflicts_{0};
  std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  std::deque<Conn*> runnable_;  // conns with frames, not owned by a worker
  bool workers_stop_ = false;   // guarded by sched_mu_
  struct PendingWal {
    uint64_t seq = 0;
    std::string frame;  // fully framed: [len][hash][payload]
  };
  std::mutex log_mu_;
  std::condition_variable log_cv_;
  std::deque<PendingWal> wal_pending_;     // guarded by log_mu_
  std::vector<std::string> wal_buf_pool_;  // recycled frames, log_mu_
  bool log_stop_ = false;                  // guarded by log_mu_
  /// Last WAL seq handed out at enqueue (assigned under log_mu_ together
  /// with the push, so wal_pending_ is always seq-ordered even with
  /// concurrent stripe-parallel appenders) and last seq the log writer has
  /// made durable. A reply/peer message tagged S is held until
  /// wal_durable_seq_ >= S.
  std::atomic<uint64_t> wal_enqueued_seq_{0};
  std::atomic<uint64_t> wal_durable_seq_{0};
  std::mutex flush_mu_;
  std::set<int> flush_request_;  // fds with replies appended off-thread
  std::vector<std::thread> workers_;
  std::thread log_thread_;
  std::string wal_frame_buf_;  // single-threaded AppendLog frame reuse
  std::atomic<uint64_t> wal_group_commits_{0};
  std::atomic<uint64_t> wal_synced_bytes_{0};
  /// Transport-level I/O counters (read/write calls and bytes on client
  /// and peer sockets), reported in STATS. Atomic because the I/O thread
  /// bumps them while a worker strand encodes a STATS reply.
  std::atomic<uint64_t> transport_syscalls_{0};
  std::atomic<uint64_t> transport_bytes_{0};

  // Telemetry counters, atomic because fast-path dispatches on different
  // stripes bump them concurrently (relaxed: they are statistics, ordered
  // for the snapshot by the full scope every encoder holds).
  std::atomic<uint64_t> publish_epoch_{0};
  std::atomic<uint64_t> tuple_ops_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> aborts_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> ops_replayed_{0};
  std::atomic<uint64_t> cross_shard_ops_{0};
  std::atomic<uint64_t> batch_frames_{0};  // kBatch frames (live + replay)
  std::atomic<uint64_t> batched_ops_{0};   // sub-ops carried by those frames
  std::atomic<uint64_t> txn_prepares_{0};  // PREPARE messages fanned out
  std::atomic<uint64_t> txn_cross_server_{0};  // cross-server commits coord'd
  // Volatile chaos-kill-point progress (reset on restart; the marker file
  // written by MaybeDieAt keeps each point one-shot per state_dir).
  int votes_received_ = 0;          // PREPARE votes seen as coordinator
  int prepared_votes_logged_ = 0;   // PREPARED records logged as participant
  std::atomic<int> wal_appends_attempted_{0};  // wal_fail_after injection
};

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_SERVER_H_
