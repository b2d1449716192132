#ifndef FPDM_PLINDA_NET_SERVER_H_
#define FPDM_PLINDA_NET_SERVER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
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
  /// The floor on logged operations between checkpoints. A checkpoint is
  /// taken once at least this many entries were logged since the last one
  /// AND the log written since then is at least as large as that
  /// checkpoint's snapshot, so a growing space is re-encoded a logarithmic
  /// number of times and replay reads at most one snapshot's worth of log.
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
  /// Accepts only 0 or 1: both mean the one event loop, the only serve
  /// path. Any other value makes Serve() fail with exit code 4 and a
  /// message naming this field. Kept for callers that still pin it to 1;
  /// it goes once they stop.
  int threads = 0;
  /// WAL durability contract. Either way, the records a serve-loop pass
  /// appends reach the log with one write() before any reply or peer
  /// message produced since the previous write leaves the process.
  /// false (default): no fdatasync — every acknowledged record is in the
  /// page cache, which survives SIGKILL of the server (the fault the chaos
  /// harness injects) but not power loss. true: the write is followed by
  /// one fdatasync (group commit), and a checkpoint is synced before its
  /// rename. A failed write or sync stops the server: it sends nothing more
  /// and Serve() returns 1.
  bool wal_sync = false;
  /// Test hook: shrink SO_SNDBUF on accepted client fds and outbound peer
  /// fds to this many bytes (0 = leave the kernel default). Forces replies
  /// and peer forwards through many short writes to exercise the partial-
  /// flush cursor paths.
  int sndbuf_bytes = 0;
};

/// The tuple-space server process of ExecutionMode::kDistributed: owns one
/// tuple space and serves the wire protocol over a Unix-domain or TCP
/// socket.
///
/// One thread, one event loop: an epoll loop reads and reassembles frames,
/// applies each request inline in arrival order, and flushes the replies.
/// The server holds one TupleSpace and one FIFO list of parked blocking
/// in/rd requests, satisfied in arrival order as soon as a publish makes a
/// match available. Scale-out is shared-nothing: run more servers and let
/// PlacementIndex spread the buckets over them.
///
/// Durability follows DESIGN.md's fault model: every mutating request is
/// appended to the write-ahead log before it is applied, and acknowledged
/// only after the loop pass's one log write; with wal_sync the reply (or
/// peer message) also waits for that write's fdatasync. A checksummed
/// checkpoint, taken once the log has grown to the last snapshot's size
/// (and by at least `checkpoint_every_ops` entries), bounds replay.
/// Retried requests are deduplicated by (pid, seq) so a client that
/// resends after a server crash gets the cached reply instead of a
/// double-applied op (exactly-once effects).
class SpaceServer {
 public:
  explicit SpaceServer(SpaceServerOptions options);
  ~SpaceServer();

  SpaceServer(const SpaceServer&) = delete;
  SpaceServer& operator=(const SpaceServer&) = delete;

  /// Recovers state, binds the socket, and serves until a SHUTDOWN request.
  /// Returns 0 on clean shutdown, 4 on a configuration the server cannot
  /// serve (unusable endpoint, unsupported `threads`), and 1 on any other
  /// fatal setup error (bad state_dir, unusable socket path, corrupt
  /// checkpoint) or when the write-ahead log stops accepting appends or
  /// syncs mid-run — the server exits rather than acknowledge mutations it
  /// cannot make durable.
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

  struct Conn {
    int fd = -1;
    FrameReader reader;
    std::string outbuf;
    size_t outbuf_sent = 0;  // flushed prefix of outbuf (no front-erase)
    bool epoll_out = false;  // EPOLLOUT currently armed for this fd
    int32_t pid = -1;  // set by HELLO; control connections stay -1
    int32_t incarnation = 0;
    bool saw_bye = false;
    /// True once a peer op (kForward/kPrepare/kDecide/kTxnQuery) arrived on
    /// this connection. Peer links carry no HELLO, so pid stays -1; this
    /// flag lets a chaos partition tell them apart from control conns.
    bool is_peer = false;
    bool close_after_flush = false;
  };

  struct Waiter {
    int fd = -1;  // connection the reply goes to
    int32_t pid = -1;
    uint64_t seq = 0;
    Template tmpl;
    bool remove = false;
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
  /// True once the log since the last checkpoint holds at least
  /// checkpoint_every_ops entries and at least that snapshot's bytes.
  bool CheckpointDue() const;
  /// Appends the entry to the pass's pending WAL records. Returns false —
  /// and stops the server (wal_failed_) — when the entry cannot be made
  /// durable (log fd lost, oversized entry): callers must not apply or
  /// acknowledge the mutation in that case, or a recovered server would
  /// disagree with what clients were told.
  bool AppendLog(const LogEntry& entry);
  /// Writes every pending record with one write() and, with wal_sync, one
  /// fdatasync (one group commit). Call before any reply or peer message
  /// produced since the previous call leaves the process. Returns false
  /// once a write or sync has failed; the server has then stopped and must
  /// send nothing more.
  bool SyncWal();
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
  void HandleHello(Conn& conn, const Request& request);
  void HandleIn(Conn& conn, const Request& request);
  void HandleBatch(Conn& conn, const Request& request);
  /// Scans the parked waiters in arrival order and satisfies those whose
  /// template now matches. Called after every publish.
  void SatisfyWaiters();
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

  // --- socket output -------------------------------------------------------
  /// Writes as much of conn.outbuf as the socket accepts, advancing the
  /// sent-offset cursor. Returns false on a fatal error.
  bool FlushConn(Conn& conn);
  /// Arms / disarms EPOLLOUT to match whether conn has unflushed output.
  void UpdateConnEvents(Conn& conn);

  SpaceServerOptions options_;
  TupleSpace space_;
  std::list<Waiter> waiters_;  // parked blocking in/rd, arrival order
  /// Endpoint string per server index; size 1 = single-server (no peers).
  std::vector<std::string> placement_;
  std::vector<PeerLink> peers_;  // indexed by server index; self unused
  /// pid -> (stamp, continuation): stamp = (incarnation<<32)|commit counter,
  /// so an XRecover scatter can pick the newest continuation across servers.
  std::map<int32_t, std::pair<uint64_t, Tuple>> continuations_;
  std::map<int32_t, ClientState> clients_;
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
  int epoll_fd_ = -1;
  /// True while serving on a TCP endpoint: accepted sockets and outbound
  /// peer connects get TCP_NODELAY + SO_KEEPALIVE.
  bool tcp_listener_ = false;
  int ops_since_checkpoint_ = 0;
  bool cancelled_ = false;
  /// Chaos partition (Op::kChaosPartition): while true, every registered
  /// client and peer connection is dropped (without crash-abort — the
  /// clients are alive, merely cut off) and their traffic is blackholed;
  /// control connections stay reachable as the out-of-band heal channel.
  bool partitioned_ = false;
  bool stop_ = false;
  bool wal_failed_ = false;  // durability lost: stop serving, exit nonzero
  bool wal_sync_failed_ = false;  // a failed write/sync: send nothing more
  /// Records appended since the last SyncWal, framed back to back.
  std::string wal_buf_;
  /// Log bytes appended since the last checkpoint, and the size of that
  /// checkpoint's snapshot: CheckpointDue compares the two.
  uint64_t log_bytes_since_checkpoint_ = 0;
  uint64_t snapshot_bytes_ = 0;
  std::set<int> flush_request_;  // fds with replies appended this pass
  /// The one buffer every socket read lands in; FrameReader::Feed then
  /// copies only the bytes read.
  static constexpr size_t kReadBufferBytes = 64 << 10;
  std::vector<char> read_buf_;
  /// WAL group commits (one per SyncWal that wrote records: one write(),
  /// plus one fdatasync with wal_sync) and the bytes they covered,
  /// reported in STATS.
  uint64_t wal_group_commits_ = 0;
  uint64_t wal_synced_bytes_ = 0;
  /// Transport-level I/O counters (read/write calls and bytes on client
  /// and peer sockets), reported in STATS.
  uint64_t transport_syscalls_ = 0;
  uint64_t transport_bytes_ = 0;

  uint64_t publish_epoch_ = 0;
  uint64_t tuple_ops_ = 0;
  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;
  uint64_t checkpoints_ = 0;
  uint64_t ops_replayed_ = 0;
  uint64_t batch_frames_ = 0;  // kBatch frames (live + replay)
  uint64_t batched_ops_ = 0;   // sub-ops carried by those frames
  uint64_t txn_prepares_ = 0;  // PREPARE messages fanned out
  uint64_t txn_cross_server_ = 0;  // cross-server commits coordinated
  // Volatile chaos-kill-point progress (reset on restart; the marker file
  // written by MaybeDieAt keeps each point one-shot per state_dir).
  int votes_received_ = 0;          // PREPARE votes seen as coordinator
  int prepared_votes_logged_ = 0;   // PREPARED records logged as participant
  int wal_appends_attempted_ = 0;   // wal_fail_after injection
};

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_SERVER_H_
