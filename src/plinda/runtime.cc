#include "plinda/runtime.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

// Complete type for the dclient_ unique_ptr destroyed in ~Runtime.
#include "plinda/net/client.h"

// Sanitizers must be told about every stack switch, or they mistake the
// fiber stacks for overflows of the thread's own stack (ASan) or lose track
// of which logical thread runs (TSan).
#if defined(__SANITIZE_ADDRESS__)
#define FPDM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FPDM_ASAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define FPDM_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FPDM_TSAN_FIBERS 1
#endif
#endif
#ifdef FPDM_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef FPDM_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace fpdm::plinda {

namespace {

/// Internal control-flow type: thrown at yield points when the host machine
/// failed, caught only by Runtime::RunProcess. This is the simulation of
/// asynchronous process death (see DESIGN.md) and never escapes the runtime.
struct ProcessKilledException {};

/// Sibling of ProcessKilledException for protocol misuse: the offending
/// process unwinds, a RuntimeError is recorded, and no respawn happens
/// (re-running a buggy program would fail the same way).
struct ProtocolErrorException {};

/// A template matching exactly `tuple` (all fields actual). Used to replay
/// logged removals: FIFO matching removes the same tuple the original
/// operation removed, even among duplicates.
Template ExactTemplate(const Tuple& tuple) {
  Template tmpl;
  tmpl.fields.reserve(tuple.fields.size());
  for (const Value& value : tuple.fields) {
    tmpl.fields.push_back(TemplateField::Actual(value));
  }
  return tmpl;
}

/// Usable stack of a process fiber: what a default pthread gets, so a
/// process body has the same stack in kSimulated as on its kRealParallel
/// thread. The mapping is MAP_NORESERVE: only touched pages cost memory.
constexpr size_t kFiberStackBytes = size_t{8} << 20;

}  // namespace

/// A process fiber owns an mmap'd stack (a PROT_NONE guard page below
/// kFiberStackBytes of usable stack); the scheduler's fiber has none and
/// saves the context of the thread running Run().
struct Runtime::Fiber {
  ~Fiber() {
#ifdef FPDM_TSAN_FIBERS
    if (tsan_fiber != nullptr && stack != nullptr) {
      __tsan_destroy_fiber(tsan_fiber);
    }
#endif
    if (stack != nullptr) munmap(stack, stack_bytes);
  }

  /// Switches this thread from this fiber to `to`; returns when a later
  /// switch resumes this one. `exiting`: this fiber has finished and is
  /// never resumed. Process fibers only ever switch to and from the
  /// scheduler, so whoever resumes this fiber is `to` — which is how the
  /// scheduler's stack bounds (the calling thread's) reach ASan.
  void SwitchTo(Fiber* to, bool exiting) {
#ifdef FPDM_ASAN_FIBERS
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(exiting ? nullptr : &fake_stack,
                                   to->stack_bottom, to->stack_size);
#endif
#ifdef FPDM_TSAN_FIBERS
    __tsan_switch_to_fiber(to->tsan_fiber, 0);
#endif
    (void)exiting;
    swapcontext(&context, &to->context);
#ifdef FPDM_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_stack, &to->stack_bottom,
                                    &to->stack_size);
#endif
  }

  ucontext_t context;
  char* stack = nullptr;               // start of the mapping (guard page)
  size_t stack_bytes = 0;              // whole mapping
  const void* stack_bottom = nullptr;  // lowest usable byte
  size_t stack_size = 0;               // usable bytes
  Runtime* runtime = nullptr;
  Proc* proc = nullptr;
  bool live = false;  // started and not yet returned from RunProcess
#ifdef FPDM_TSAN_FIBERS
  void* tsan_fiber = nullptr;
#endif
};

Runtime::Proc::~Proc() = default;

std::string ToString(const TraceEvent& event) {
  const char* kind = "?";
  switch (event.kind) {
    case TraceEvent::Kind::kSpawned:
      kind = "SPAWNED";
      break;
    case TraceEvent::Kind::kDone:
      kind = "DONE";
      break;
    case TraceEvent::Kind::kKilled:
      kind = "KILLED";
      break;
    case TraceEvent::Kind::kRespawned:
      kind = "RESPAWNED";
      break;
    case TraceEvent::Kind::kMachineFailed:
      kind = "MACHINE_FAILED";
      break;
    case TraceEvent::Kind::kMachineRecovered:
      kind = "MACHINE_RECOVERED";
      break;
    case TraceEvent::Kind::kServerFailed:
      kind = "SERVER_FAILED";
      break;
    case TraceEvent::Kind::kServerRecovered:
      kind = "SERVER_RECOVERED";
      break;
    case TraceEvent::Kind::kServerCheckpoint:
      kind = "SERVER_CHECKPOINT";
      break;
    case TraceEvent::Kind::kServerPartitioned:
      kind = "SERVER_PARTITIONED";
      break;
    case TraceEvent::Kind::kServerHealed:
      kind = "SERVER_HEALED";
      break;
    case TraceEvent::Kind::kError:
      kind = "ERROR";
      break;
  }
  char buf[160];
  if (event.pid >= 0) {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s %s (pid %d, machine %d)",
                  event.time, kind, event.process.c_str(), event.pid,
                  event.machine);
  } else if (event.machine >= 0) {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s machine %d", event.time,
                  kind, event.machine);
  } else {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s tuple-space server",
                  event.time, kind);
  }
  return buf;
}

std::string ToString(const RuntimeError& error) {
  const char* what = "?";
  switch (error.code) {
    case RuntimeError::Code::kXCommitWithoutXStart:
      what = "xcommit without xstart";
      break;
    case RuntimeError::Code::kNestedXStart:
      what = "nested xstart (transactions cannot nest)";
      break;
    case RuntimeError::Code::kXRecoverInsideTransaction:
      what = "xrecover inside an open transaction";
      break;
    case RuntimeError::Code::kNoMachineAvailable:
      what = "spawn requested while every machine is down";
      break;
    case RuntimeError::Code::kFaultInjectionUnsupported:
      what = "fault injection is unsupported in kRealParallel mode";
      break;
    case RuntimeError::Code::kWireProtocolError:
      what = "tuple-space server wire protocol failure";
      break;
    case RuntimeError::Code::kDistributedSpawnUnsupported:
      what = "spawn from a running process is unsupported in kDistributed mode";
      break;
    case RuntimeError::Code::kServerDead:
      what = "tuple-space server exited fatally and cannot be restarted";
      break;
    case RuntimeError::Code::kBadSocketPath:
      what = "server socket path exceeds the sun_path limit";
      break;
    case RuntimeError::Code::kBadEndpoint:
      what = "malformed server endpoint or unsupported transport";
      break;
    case RuntimeError::Code::kBadOption:
      what = "unsupported runtime option";
      break;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[t=%8.2f] protocol error in %s (pid %d): %s%s%s", error.time,
                error.process.c_str(), error.pid, what,
                error.detail.empty() ? "" : " — ", error.detail.c_str());
  return buf;
}

void Runtime::RecordLocked(TraceEvent::Kind kind, double time,
                           const Proc* proc, int machine) {
  if (!trace_enabled_) return;
  TraceEvent event;
  event.kind = kind;
  event.time = time;
  if (proc != nullptr) {
    event.pid = proc->id;
    event.process = proc->name;
    event.machine = proc->machine;
  } else {
    event.machine = machine;
  }
  trace_.push_back(std::move(event));
}

Runtime::Runtime(int num_machines, RuntimeOptions options)
    : options_(options),
      machines_(static_cast<size_t>(num_machines)),
      scheduler_fiber_(std::make_unique<Fiber>()) {
  assert(num_machines > 0);
}

Runtime::~Runtime() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    FinishFibersLocked(lock);  // sets shutdown_
    for (auto& proc : procs_) proc->cv.notify_all();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void Runtime::SetMachineSpeed(int machine, double speed) {
  assert(machine >= 0 && machine < num_machines() && speed > 0);
  machines_[static_cast<size_t>(machine)].speed = speed;
}

void Runtime::ScheduleFailure(int machine, double time) {
  assert(machine >= 0 && machine < num_machines());
  events_.push_back(Event{time, Event::Kind::kMachineFail, machine});
}

void Runtime::ScheduleRecovery(int machine, double time) {
  assert(machine >= 0 && machine < num_machines());
  events_.push_back(Event{time, Event::Kind::kMachineRecover, machine});
}

void Runtime::ScheduleServerFailure(double time) {
  ScheduleServerFailure(time, -1);
}

// Event::machine doubles as the shard-server index in kDistributed mode
// (-1 = round-robin). The simulator's single logical server ignores it.
void Runtime::ScheduleServerFailure(double time, int server_index) {
  ScheduleServerFailure(time, server_index, /*torn_tail=*/false);
}

void Runtime::ScheduleServerFailure(double time, int server_index,
                                    bool torn_tail) {
  events_.push_back(
      Event{time, Event::Kind::kServerFail, server_index, torn_tail});
  server_protected_ = true;  // start maintaining checkpoint + op log
}

void Runtime::ScheduleServerRecovery(double time) {
  ScheduleServerRecovery(time, -1);
}

void Runtime::ScheduleServerRecovery(double time, int server_index) {
  events_.push_back(Event{time, Event::Kind::kServerRecover, server_index});
}

void Runtime::ScheduleServerPartition(double time, int server_index) {
  events_.push_back(
      Event{time, Event::Kind::kServerPartition, server_index});
}

void Runtime::ScheduleServerHeal(double time, int server_index) {
  events_.push_back(Event{time, Event::Kind::kServerHeal, server_index});
}

int Runtime::Spawn(const std::string& name, ProcessFn fn) {
  std::unique_lock<std::mutex> lock(mu_);
  int machine = PickMachineLocked();
  assert(machine >= 0);
  return SpawnLocked(name, machine, std::move(fn),
                     real_mode() || dist_mode() ? 0.0 : options_.spawn_delay);
}

int Runtime::SpawnOn(const std::string& name, int machine, ProcessFn fn) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(machine >= 0 && machine < num_machines());
  return SpawnLocked(name, machine, std::move(fn),
                     real_mode() || dist_mode() ? 0.0 : options_.spawn_delay);
}

int Runtime::PickMachineLocked() const {
  std::vector<int> load(machines_.size(), 0);
  for (const auto& proc : procs_) {
    if (proc->state == ProcState::kReady ||
        proc->state == ProcState::kBlocked) {
      ++load[static_cast<size_t>(proc->machine)];
    }
  }
  int best = -1;
  for (size_t m = 0; m < machines_.size(); ++m) {
    if (!machines_[m].up) continue;
    if (best < 0 || load[m] < load[static_cast<size_t>(best)]) {
      best = static_cast<int>(m);
    }
  }
  return best;
}

int Runtime::SpawnLocked(const std::string& name, int machine, ProcessFn fn,
                         double start_clock) {
  auto proc = std::make_unique<Proc>();
  proc->id = static_cast<int>(procs_.size());
  proc->name = name;
  proc->fn = std::move(fn);
  proc->machine = machine;
  proc->clock = start_clock;
  proc->state = ProcState::kReady;
  Proc* raw = proc.get();
  procs_.push_back(std::move(proc));
  RecordLocked(TraceEvent::Kind::kSpawned, start_clock, raw, raw->machine);
  // Distributed mode forks an OS process per Proc inside RunDistributed();
  // the parent must stay single-threaded so fork() is safe.
  if (!dist_mode()) StartProcessLocked(raw);
  return raw->id;
}

void Runtime::StartProcessLocked(Proc* proc) {
  if (real_mode()) {
    ++real_runnable_;
    threads_.emplace_back(&Runtime::RunProcessReal, this, proc);
    return;
  }
  if (proc->fiber == nullptr) {
    auto fiber = std::make_unique<Fiber>();
    const size_t guard = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    fiber->stack_bytes = guard + kFiberStackBytes;
    void* map = mmap(nullptr, fiber->stack_bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    if (map == MAP_FAILED || mprotect(map, guard, PROT_NONE) != 0) {
      std::perror("plinda: cannot map a process fiber stack");
      std::abort();
    }
    fiber->stack = static_cast<char*>(map);
    fiber->stack_bottom = fiber->stack + guard;
    fiber->stack_size = kFiberStackBytes;
    fiber->runtime = this;
    fiber->proc = proc;
    proc->fiber = std::move(fiber);
  }
  Fiber* fiber = proc->fiber.get();
  assert(!fiber->live && "a respawn reuses the stack of a finished fiber");
#ifdef FPDM_ASAN_FIBERS
  // The previous incarnation left its frames' redzones poisoned.
  ASAN_UNPOISON_MEMORY_REGION(fiber->stack_bottom, fiber->stack_size);
#endif
#ifdef FPDM_TSAN_FIBERS
  if (fiber->tsan_fiber != nullptr) __tsan_destroy_fiber(fiber->tsan_fiber);
  fiber->tsan_fiber = __tsan_create_fiber(0);
#endif
  getcontext(&fiber->context);
  fiber->context.uc_stack.ss_sp = const_cast<void*>(fiber->stack_bottom);
  fiber->context.uc_stack.ss_size = fiber->stack_size;
  fiber->context.uc_link = nullptr;
  const auto bits = reinterpret_cast<uintptr_t>(fiber);
  makecontext(&fiber->context, reinterpret_cast<void (*)()>(&FiberMain), 2,
              static_cast<int>(static_cast<uint32_t>(bits >> 32)),
              static_cast<int>(static_cast<uint32_t>(bits)));
  fiber->live = true;
}

void Runtime::FiberMain(int fiber_hi, int fiber_lo) {
  auto* fiber = reinterpret_cast<Fiber*>(
      (uintptr_t{static_cast<uint32_t>(fiber_hi)} << 32) |
      uintptr_t{static_cast<uint32_t>(fiber_lo)});
  Runtime* runtime = fiber->runtime;
  Fiber* scheduler = runtime->scheduler_fiber_.get();
#ifdef FPDM_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &scheduler->stack_bottom,
                                  &scheduler->stack_size);
#endif
  runtime->RunProcess(fiber->proc);
  fiber->SwitchTo(scheduler, /*exiting=*/true);
  std::abort();  // a finished fiber is never resumed
}

bool Runtime::Run() {
  if (real_mode()) return RunReal();
  if (dist_mode()) return RunDistributed();
  const auto run_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  std::stable_sort(events_.begin(), events_.end());
  next_event_ = 0;
  deadlocked_ = false;
  diagnostic_.clear();
  if (server_protected_) {
    // Initial checkpoint at t=0 covers tuples seeded before Run().
    server_checkpoint_ = space_.Checkpoint();
    server_log_.clear();
    ++stats_.server_checkpoints;
    RecordLocked(TraceEvent::Kind::kServerCheckpoint, 0.0, nullptr, -1);
    next_checkpoint_time_ = options_.server_checkpoint_interval;
  }
  for (;;) {
    if (++stats_.scheduler_steps > options_.max_steps) {
      deadlocked_ = true;
      break;
    }
    Proc* next = nullptr;
    for (auto& up : procs_) {
      Proc* p = up.get();
      if (p->state != ProcState::kReady) continue;
      if (next == nullptr || p->clock < next->clock ||
          (p->clock == next->clock && p->id < next->id)) {
        next = p;
      }
    }
    if (next == nullptr) {
      bool waiting = !pending_respawns_.empty();
      for (auto& up : procs_) {
        if (up->state == ProcState::kBlocked) waiting = true;
      }
      // Every process finished: the simulation is over and faults scheduled
      // beyond this point never happen.
      if (!waiting) break;
      // Someone is blocked or awaiting a machine: only a future event can
      // unstick them; with no events left this is a deadlock.
      if (next_event_ >= events_.size()) {
        deadlocked_ = true;
        break;
      }
    }
    const double horizon =
        next != nullptr ? next->clock : std::numeric_limits<double>::infinity();
    if (next_event_ < events_.size() && events_[next_event_].time <= horizon) {
      ApplyEventLocked(events_[next_event_], lock);
      ++next_event_;
      continue;
    }
    GrantLocked(next, lock);
  }
  if (deadlocked_ || !errors_.empty()) BuildDiagnosticLocked();
  FinishFibersLocked(lock);
  lock.unlock();
  wall_time_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             run_start)
                   .count();
  return !deadlocked_ && errors_.empty();
}

void Runtime::BuildDiagnosticLocked() {
  std::string out;
  if (deadlocked_) {
    out += "deadlock: no process can make progress\n";
    for (const auto& up : procs_) {
      const Proc* proc = up.get();
      // Real mode: the kBlocked processes are exactly those on
      // real_waiters_, which RunReal() reads here before cancelling them.
      if (proc->state != ProcState::kBlocked) continue;
      char head[128];
      std::snprintf(head, sizeof(head), "  %s (pid %d, machine %d) blocked on ",
                    proc->name.c_str(), proc->id, proc->machine);
      out += head;
      if (proc->block_reason == BlockReason::kServer) {
        out += "tuple-space server recovery";
      } else {
        out += proc->blocked_remove ? "in " : "rd ";
        out += ToString(proc->blocked_tmpl);
      }
      out += '\n';
    }
    for (const Proc* proc : pending_respawns_) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "  %s (pid %d) killed, awaiting an up machine\n",
                    proc->name.c_str(), proc->id);
      out += line;
    }
    if (!server_up_) {
      bool recovery_pending = false;
      for (size_t e = next_event_; e < events_.size(); ++e) {
        if (events_[e].kind == Event::Kind::kServerRecover) {
          recovery_pending = true;
        }
      }
      out += recovery_pending
                 ? "  tuple-space server is down (recovery still scheduled)\n"
                 : "  tuple-space server is down and no recovery is "
                   "scheduled\n";
    }
  }
  for (const RuntimeError& error : errors_) {
    out += "  " + ToString(error) + '\n';
  }
  diagnostic_ = std::move(out);
}

void Runtime::GrantLocked(Proc* proc, std::unique_lock<std::mutex>& lock) {
#ifdef FPDM_TSAN_FIBERS
  scheduler_fiber_->tsan_fiber = __tsan_get_current_fiber();
#endif
  // mu_ is not recursive and every fiber runs on this thread: the process
  // takes it itself while it runs.
  lock.unlock();
  scheduler_fiber_->SwitchTo(proc->fiber.get(), /*exiting=*/false);
  lock.lock();
}

void Runtime::FinishFibersLocked(std::unique_lock<std::mutex>& lock) {
  shutdown_ = true;
  for (size_t i = 0; i < procs_.size(); ++i) {
    Proc* proc = procs_[i].get();
    if (proc->fiber != nullptr && proc->fiber->live) GrantLocked(proc, lock);
  }
}

void Runtime::ApplyEventLocked(const Event& event,
                               std::unique_lock<std::mutex>& lock) {
  switch (event.kind) {
    case Event::Kind::kMachineFail: {
      Machine& machine = machines_[static_cast<size_t>(event.machine)];
      if (!machine.up) return;
      machine.up = false;
      RecordLocked(TraceEvent::Kind::kMachineFailed, event.time, nullptr,
                   event.machine);
      for (auto& up : procs_) {
        Proc* proc = up.get();
        if (proc->machine != event.machine) continue;
        if (proc->state != ProcState::kReady &&
            proc->state != ProcState::kBlocked) {
          continue;
        }
        KillProcLocked(proc, event.time, lock);
        if (auto_respawn_) RespawnLocked(proc, event.time);
      }
      return;
    }
    case Event::Kind::kMachineRecover: {
      Machine& machine = machines_[static_cast<size_t>(event.machine)];
      if (machine.up) return;
      machine.up = true;
      RecordLocked(TraceEvent::Kind::kMachineRecovered, event.time, nullptr,
                   event.machine);
      while (!pending_respawns_.empty()) {
        Proc* proc = pending_respawns_.front();
        pending_respawns_.pop_front();
        proc->machine = event.machine;
        proc->clock = event.time;  // RespawnLocked adds the spawn delay
        RespawnLocked(proc, event.time);
      }
      return;
    }
    case Event::Kind::kServerFail: {
      if (!server_up_) return;
      // Periodic checkpoints due before the crash cover the current state
      // (no mutation happened since, or they would already be taken).
      MaybeCheckpointLocked(event.time);
      server_up_ = false;
      server_down_since_ = event.time;
      ++stats_.server_failures;
      // The server's volatile memory is gone: recovery must rebuild the
      // space from checkpoint + log, not from this in-process object.
      space_.Clear();
      RecordLocked(TraceEvent::Kind::kServerFailed, event.time, nullptr, -1);
      return;
    }
    case Event::Kind::kServerRecover: {
      if (server_up_) return;
      // Rollback recovery (§2.4.6): last periodic checkpoint, then the
      // operation log, then restorations from transactions aborted while
      // the server was down.
      const bool restored = space_.Restore(server_checkpoint_);
      assert(restored && "server checkpoint must round-trip");
      (void)restored;
      for (const ServerLogEntry& entry : server_log_) {
        if (entry.removed) {
          space_.TryIn(ExactTemplate(entry.tuple), nullptr);
        } else {
          space_.Out(entry.tuple);
        }
      }
      stats_.server_ops_replayed += server_log_.size();
      for (Tuple& tuple : deferred_restores_) space_.Out(std::move(tuple));
      deferred_restores_.clear();
      // Fresh checkpoint of the recovered state; the replayed log is spent.
      server_checkpoint_ = space_.Checkpoint();
      server_log_.clear();
      ++stats_.server_checkpoints;
      next_checkpoint_time_ = event.time + options_.server_checkpoint_interval;
      server_up_ = true;
      stats_.server_downtime += event.time - server_down_since_;
      RecordLocked(TraceEvent::Kind::kServerRecovered, event.time, nullptr, -1);
      // Stalled clients resume after the restart delay; processes blocked on
      // templates also recheck (the recovered space may satisfy them).
      WakeBlockedLocked(event.time + options_.server_restart_delay);
      return;
    }
    case Event::Kind::kServerPartition:
    case Event::Kind::kServerHeal:
      // Link faults only exist in kDistributed mode (handled by the
      // distributed supervisor loop); the simulator has no network.
      return;
  }
}

void Runtime::MaybeCheckpointLocked(double now) {
  if (!server_protected_ || !server_up_) return;
  while (next_checkpoint_time_ <= now) {
    server_checkpoint_ = space_.Checkpoint();
    server_log_.clear();
    ++stats_.server_checkpoints;
    // Stamped at the boundary the checkpoint covers; taken lazily at the
    // first mutation past it, so trace times of checkpoint events may
    // precede the event that triggered them.
    RecordLocked(TraceEvent::Kind::kServerCheckpoint, next_checkpoint_time_,
                 nullptr, -1);
    next_checkpoint_time_ += options_.server_checkpoint_interval;
  }
}

void Runtime::ServerOutLocked(double now, Tuple tuple) {
  MaybeCheckpointLocked(now);
  if (server_protected_) {
    server_log_.push_back(ServerLogEntry{/*removed=*/false, tuple});
  }
  space_.Out(std::move(tuple));
}

bool Runtime::ServerTryInLocked(double now, const Template& tmpl,
                                Tuple* result) {
  MaybeCheckpointLocked(now);
  Tuple found;
  if (!space_.TryIn(tmpl, &found)) return false;
  if (server_protected_) {
    server_log_.push_back(ServerLogEntry{/*removed=*/true, found});
  }
  if (result != nullptr) *result = std::move(found);
  return true;
}

void Runtime::WaitServerLocked(Proc* proc, std::unique_lock<std::mutex>& lock) {
  while (!server_up_) {
    proc->state = ProcState::kBlocked;
    proc->block_reason = BlockReason::kServer;
    Yield(proc, lock);
  }
  proc->block_reason = BlockReason::kNone;
}

void Runtime::FailProcLocked(Proc* proc, RuntimeError::Code code,
                             std::string detail) {
  RuntimeError error;
  error.code = code;
  error.time = proc->clock;
  error.pid = proc->id;
  error.process = proc->name;
  error.detail = std::move(detail);
  errors_.push_back(std::move(error));
  proc->errored = true;
  RecordLocked(TraceEvent::Kind::kError, proc->clock, proc, proc->machine);
  throw ProtocolErrorException{};
}

void Runtime::KillProcLocked(Proc* proc, double time,
                             std::unique_lock<std::mutex>& lock) {
  proc->kill_requested = true;
  proc->clock = time;
  RecordLocked(TraceEvent::Kind::kKilled, time, proc, proc->machine);
  // Resume the process fiber so it can unwind; RunProcess marks it dead and
  // rolls back its open transaction.
  GrantLocked(proc, lock);
  assert(proc->state == ProcState::kDead);
}

void Runtime::RespawnLocked(Proc* proc, double time) {
  int machine = PickMachineLocked();
  if (machine < 0) {
    pending_respawns_.push_back(proc);
    return;
  }
  proc->machine = machine;
  proc->clock = time + options_.spawn_delay;
  proc->state = ProcState::kReady;
  proc->kill_requested = false;
  ++proc->incarnation;
  ++stats_.processes_respawned;
  RecordLocked(TraceEvent::Kind::kRespawned, proc->clock, proc, machine);
  StartProcessLocked(proc);
}

void Runtime::WakeBlockedLocked(double time) {
  for (auto& up : procs_) {
    Proc* proc = up.get();
    if (proc->state == ProcState::kBlocked) {
      proc->clock = std::max(proc->clock, time);
      proc->state = ProcState::kReady;
    }
  }
}

void Runtime::AbortTxnLocked(Proc* proc, double time) {
  if (!proc->txn_active) return;
  // Restore the tuples the transaction removed; drop its unpublished outs.
  // Restored tuples re-enter at the tail of the FIFO order, which is an
  // acceptable deviation (no template in this repo depends on the relative
  // order of a restored tuple). While the server is down the restorations
  // are parked and applied right after recovery's log replay.
  bool restored = false;
  for (Tuple& tuple : proc->txn_ins) {
    if (server_up_) {
      ServerOutLocked(time, std::move(tuple));
    } else {
      deferred_restores_.push_back(std::move(tuple));
    }
    restored = true;
  }
  proc->txn_ins.clear();
  proc->txn_outs.clear();
  proc->txn_active = false;
  ++stats_.transactions_aborted;
  if (restored && server_up_) WakeBlockedLocked(time);
}

void Runtime::RunProcess(Proc* proc) {
  bool killed = false;
  bool errored = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    killed = proc->kill_requested || shutdown_;
  }
  if (!killed) {
    ProcessContext ctx(this, proc);
    try {
      proc->fn(ctx);
    } catch (const ProcessKilledException&) {
      killed = true;
    } catch (const ProtocolErrorException&) {
      errored = true;
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  AbortTxnLocked(proc, proc->clock);
  if (killed) {
    proc->state = ProcState::kDead;
    ++stats_.processes_killed;
  } else if (errored) {
    // Terminated by FailProcLocked: counted in errors_, not as a failure.
    proc->state = ProcState::kDead;
  } else {
    proc->state = ProcState::kDone;
    completion_time_ = std::max(completion_time_, proc->clock);
    RecordLocked(TraceEvent::Kind::kDone, proc->clock, proc, proc->machine);
  }
  proc->fiber->live = false;
}

void Runtime::Yield(Proc* proc, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  proc->fiber->SwitchTo(scheduler_fiber_.get(), /*exiting=*/false);
  lock.lock();
  if (proc->kill_requested || shutdown_) throw ProcessKilledException{};
}

void Runtime::OpOut(Proc* proc, Tuple tuple) {
  if (real_mode()) {
    RealOut(proc, std::move(tuple));
    return;
  }
  if (dist_mode()) {
    DistOut(proc, std::move(tuple));
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  WaitServerLocked(proc, lock);
  proc->clock += options_.tuple_op_latency;
  ++stats_.tuple_ops;
  if (proc->txn_active) {
    proc->txn_outs.push_back(std::move(tuple));
  } else {
    ServerOutLocked(proc->clock, std::move(tuple));
    WakeBlockedLocked(proc->clock);
  }
  Yield(proc, lock);
}

bool Runtime::OpIn(Proc* proc, const Template& tmpl, Tuple* result,
                   bool blocking, bool remove) {
  if (real_mode()) return RealIn(proc, tmpl, result, blocking, remove);
  if (dist_mode()) return DistIn(proc, tmpl, result, blocking, remove);
  std::unique_lock<std::mutex> lock(mu_);
  proc->clock += options_.tuple_op_latency;
  ++stats_.tuple_ops;
  for (;;) {
    WaitServerLocked(proc, lock);
    // A transaction sees its own uncommitted outs.
    if (proc->txn_active) {
      bool matched = false;
      for (auto it = proc->txn_outs.begin(); it != proc->txn_outs.end(); ++it) {
        if (Matches(tmpl, *it)) {
          if (result != nullptr) *result = *it;
          if (remove) proc->txn_outs.erase(it);
          matched = true;
          break;
        }
      }
      if (matched) {
        Yield(proc, lock);
        return true;
      }
    }
    Tuple found;
    const bool ok = remove ? ServerTryInLocked(proc->clock, tmpl, &found)
                           : space_.TryRd(tmpl, &found);
    if (ok) {
      if (remove && proc->txn_active) proc->txn_ins.push_back(found);
      if (result != nullptr) *result = std::move(found);
      Yield(proc, lock);
      return true;
    }
    if (!blocking) {
      Yield(proc, lock);
      return false;
    }
    proc->state = ProcState::kBlocked;
    proc->block_reason = BlockReason::kTemplate;
    proc->blocked_tmpl = tmpl;
    proc->blocked_remove = remove;
    Yield(proc, lock);  // woken when some commit/out publishes new tuples
  }
}

void Runtime::OpXStart(Proc* proc) {
  if (real_mode()) {
    RealXStart(proc);
    return;
  }
  if (dist_mode()) {
    DistXStart(proc);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  WaitServerLocked(proc, lock);
  if (proc->txn_active) {
    FailProcLocked(proc, RuntimeError::Code::kNestedXStart,
                   "transaction already open");
  }
  proc->clock += options_.txn_latency;
  proc->txn_active = true;
  Yield(proc, lock);
}

void Runtime::OpXCommit(Proc* proc, bool has_continuation, Tuple continuation) {
  if (real_mode()) {
    RealXCommit(proc, has_continuation, std::move(continuation));
    return;
  }
  if (dist_mode()) {
    DistXCommit(proc, has_continuation, std::move(continuation));
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  WaitServerLocked(proc, lock);
  if (!proc->txn_active) {
    FailProcLocked(proc, RuntimeError::Code::kXCommitWithoutXStart,
                   "no transaction is open");
  }
  proc->clock += options_.txn_latency;
  bool published = !proc->txn_outs.empty();
  for (Tuple& tuple : proc->txn_outs) {
    ServerOutLocked(proc->clock, std::move(tuple));
  }
  proc->txn_outs.clear();
  proc->txn_ins.clear();
  proc->txn_active = false;
  if (has_continuation) continuations_[proc->id] = std::move(continuation);
  ++stats_.transactions_committed;
  if (published) WakeBlockedLocked(proc->clock);
  Yield(proc, lock);
}

bool Runtime::OpXRecover(Proc* proc, Tuple* continuation) {
  if (real_mode()) return RealXRecover(proc, continuation);
  if (dist_mode()) return DistXRecover(proc, continuation);
  std::unique_lock<std::mutex> lock(mu_);
  WaitServerLocked(proc, lock);
  if (proc->txn_active) {
    FailProcLocked(proc, RuntimeError::Code::kXRecoverInsideTransaction,
                   "xrecover must run outside transactions");
  }
  proc->clock += options_.txn_latency;
  auto it = continuations_.find(proc->id);
  const bool found = it != continuations_.end();
  if (found && continuation != nullptr) *continuation = it->second;
  Yield(proc, lock);
  return found;
}

void Runtime::OpCompute(Proc* proc, double work_units) {
  assert(work_units >= 0);
  if (dist_mode()) {
    // Real work on the worker process; units feed the status-file report
    // the supervisor folds into total_work.
    proc->work_done += work_units;
    return;
  }
  if (real_mode()) {
    // The real work happens on the calling thread; the units only feed the
    // total_work statistic (folded in after the join).
    proc->work_done += work_units;
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  proc->clock +=
      work_units / machines_[static_cast<size_t>(proc->machine)].speed;
  proc->work_done += work_units;
  stats_.total_work += work_units;
  Yield(proc, lock);
}

int Runtime::OpSpawn(Proc* proc, const std::string& name, ProcessFn fn) {
  if (dist_mode()) {
    FailProcDist(proc, RuntimeError::Code::kDistributedSpawnUnsupported,
                 "cannot place process \"" + name + "\"");
  }
  if (real_mode()) return RealSpawn(proc, name, std::move(fn));
  std::unique_lock<std::mutex> lock(mu_);
  proc->clock += options_.tuple_op_latency;
  int machine = PickMachineLocked();
  if (machine < 0) {
    FailProcLocked(proc, RuntimeError::Code::kNoMachineAvailable,
                   "cannot place process \"" + name + "\"");
  }
  int id = SpawnLocked(name, machine, std::move(fn),
                       proc->clock + options_.spawn_delay);
  Yield(proc, lock);
  return id;
}

// --- real-parallel backend (ExecutionMode::kRealParallel) ----------------

double Runtime::NowReal() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       real_start_)
      .count();
}

bool Runtime::RunReal() {
  std::unique_lock<std::mutex> lock(mu_);
  deadlocked_ = false;
  diagnostic_.clear();
  if (!events_.empty()) {
    // The fault model needs the deterministic virtual-time scheduler (kill
    // points, rollback replay, virtual respawn delays): fail fast instead of
    // silently ignoring the scheduled faults.
    RuntimeError error;
    error.code = RuntimeError::Code::kFaultInjectionUnsupported;
    error.detail =
        "scheduled machine/server faults require ExecutionMode::kSimulated";
    errors_.push_back(std::move(error));
    shutdown_ = true;
    for (auto& proc : procs_) proc->cv.notify_all();
    BuildDiagnosticLocked();
    lock.unlock();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    return false;
  }

  real_start_ = std::chrono::steady_clock::now();
  started_real_ = true;
  for (auto& proc : procs_) proc->cv.notify_all();

  // No timer: a parked process runs again only when a runnable one hands
  // it a tuple, so once none is runnable, none ever will be. Either every
  // process has finished, or the ones left on the waiter list deadlocked.
  sched_cv_.wait(lock, [&] { return real_runnable_ == 0; });
  deadlocked_ = !real_waiters_.empty();
  // Name the parked processes and their templates before the cancel
  // below unwinds them.
  if (deadlocked_) BuildDiagnosticLocked();
  wall_time_ = NowReal();
  completion_time_ = wall_time_;
  // Cancel: every parked process unwinds, and the ins its open
  // transaction restores go to the space, not to another dying waiter.
  shutdown_ = true;
  real_waiters_.clear();
  for (auto& proc : procs_) proc->cv.notify_all();
  lock.unlock();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  lock.lock();
  // Every process thread joined: the counters are final.
  stats_.tuple_ops += real_tuple_ops_.exchange(0);
  for (auto& up : procs_) stats_.total_work += up->work_done;
  if (!deadlocked_ && !errors_.empty()) BuildDiagnosticLocked();
  return !deadlocked_ && errors_.empty();
}

void Runtime::RunProcessReal(Proc* proc) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    proc->cv.wait(lock, [&] { return started_real_ || shutdown_; });
    if (!started_real_) {  // shut down before Run(): never ran
      proc->state = ProcState::kDead;
      return;
    }
  }
  bool killed = false;
  bool errored = false;
  ProcessContext ctx(this, proc);
  try {
    proc->fn(ctx);
  } catch (const ProcessKilledException&) {
    killed = true;
  } catch (const ProtocolErrorException&) {
    errored = true;
  }
  std::vector<Proc*> woken;
  std::unique_lock<std::mutex> lock(mu_);
  RealAbortTxnLocked(proc, &woken);
  if (killed) {
    proc->state = ProcState::kDead;
    ++stats_.processes_killed;
  } else if (errored) {
    proc->state = ProcState::kDead;
  } else {
    proc->state = ProcState::kDone;
    RecordLocked(TraceEvent::Kind::kDone, NowReal(), proc, proc->machine);
  }
  if (--real_runnable_ == 0) sched_cv_.notify_one();
  lock.unlock();
  for (Proc* other : woken) other->cv.notify_one();
}

void Runtime::RealPublishLocked(Tuple tuple, std::vector<Proc*>* woken) {
  // A parked waiter matched nothing when it parked, and every later
  // publish came through here, so only `tuple` can satisfy it now: this is
  // SpaceServer::SatisfyWaiters' rule, applied one tuple at a time.
  for (auto it = real_waiters_.begin(); it != real_waiters_.end();) {
    Proc* waiter = *it;
    if (!Matches(waiter->blocked_tmpl, tuple)) {
      ++it;
      continue;
    }
    it = real_waiters_.erase(it);
    waiter->state = ProcState::kReady;
    ++real_runnable_;
    woken->push_back(waiter);
    if (waiter->blocked_remove) {
      waiter->handed = std::move(tuple);
      return;
    }
    waiter->handed = tuple;
  }
  space_.Out(std::move(tuple));
}

void Runtime::RealAbortTxnLocked(Proc* proc, std::vector<Proc*>* woken) {
  if (!proc->txn_active) return;
  // Restore the tuples the transaction removed; drop unpublished outs.
  for (Tuple& tuple : proc->txn_ins) RealPublishLocked(std::move(tuple), woken);
  proc->txn_ins.clear();
  proc->txn_outs.clear();
  proc->txn_active = false;
  ++stats_.transactions_aborted;
}

void Runtime::FailProcReal(Proc* proc, RuntimeError::Code code,
                           std::string detail) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    RuntimeError error;
    error.code = code;
    error.time = NowReal();
    error.pid = proc->id;
    error.process = proc->name;
    error.detail = std::move(detail);
    errors_.push_back(std::move(error));
    proc->errored = true;
    RecordLocked(TraceEvent::Kind::kError, NowReal(), proc, proc->machine);
  }
  throw ProtocolErrorException{};
}

void Runtime::RealOut(Proc* proc, Tuple tuple) {
  real_tuple_ops_.fetch_add(1, std::memory_order_relaxed);
  if (proc->txn_active) {
    proc->txn_outs.push_back(std::move(tuple));
    return;
  }
  std::vector<Proc*> woken;
  std::unique_lock<std::mutex> lock(mu_);
  RealPublishLocked(std::move(tuple), &woken);
  lock.unlock();
  for (Proc* other : woken) other->cv.notify_one();
}

bool Runtime::RealIn(Proc* proc, const Template& tmpl, Tuple* result,
                     bool blocking, bool remove) {
  real_tuple_ops_.fetch_add(1, std::memory_order_relaxed);
  // A transaction sees its own uncommitted outs (same as the simulator).
  if (proc->txn_active) {
    for (auto it = proc->txn_outs.begin(); it != proc->txn_outs.end(); ++it) {
      if (Matches(tmpl, *it)) {
        if (result != nullptr) *result = *it;
        if (remove) proc->txn_outs.erase(it);
        return true;
      }
    }
  }
  Tuple found;
  std::unique_lock<std::mutex> lock(mu_);
  const bool ok =
      remove ? space_.TryIn(tmpl, &found) : space_.TryRd(tmpl, &found);
  if (!ok) {
    if (!blocking) return false;
    proc->state = ProcState::kBlocked;
    proc->block_reason = BlockReason::kTemplate;
    proc->blocked_tmpl = tmpl;
    proc->blocked_remove = remove;
    real_waiters_.push_back(proc);
    if (--real_runnable_ == 0) sched_cv_.notify_one();
    proc->cv.wait(lock, [&] {
      return proc->state != ProcState::kBlocked || shutdown_;
    });
    if (proc->state == ProcState::kBlocked) {
      // Cancelled: RunReal found every live process parked.
      ++real_runnable_;
      throw ProcessKilledException{};
    }
    proc->block_reason = BlockReason::kNone;
    found = std::move(proc->handed);
  }
  lock.unlock();
  if (remove && proc->txn_active) proc->txn_ins.push_back(found);
  if (result != nullptr) *result = std::move(found);
  return true;
}

void Runtime::RealXStart(Proc* proc) {
  if (proc->txn_active) {
    FailProcReal(proc, RuntimeError::Code::kNestedXStart,
                 "transaction already open");
  }
  proc->txn_active = true;
}

void Runtime::RealXCommit(Proc* proc, bool has_continuation,
                          Tuple continuation) {
  if (!proc->txn_active) {
    FailProcReal(proc, RuntimeError::Code::kXCommitWithoutXStart,
                 "no transaction is open");
  }
  std::vector<Proc*> woken;
  std::unique_lock<std::mutex> lock(mu_);
  for (Tuple& tuple : proc->txn_outs) {
    RealPublishLocked(std::move(tuple), &woken);
  }
  if (has_continuation) continuations_[proc->id] = std::move(continuation);
  ++stats_.transactions_committed;
  lock.unlock();
  proc->txn_outs.clear();
  proc->txn_ins.clear();
  proc->txn_active = false;
  for (Proc* other : woken) other->cv.notify_one();
}

bool Runtime::RealXRecover(Proc* proc, Tuple* continuation) {
  if (proc->txn_active) {
    FailProcReal(proc, RuntimeError::Code::kXRecoverInsideTransaction,
                 "xrecover must run outside transactions");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = continuations_.find(proc->id);
  const bool found = it != continuations_.end();
  if (found && continuation != nullptr) *continuation = it->second;
  return found;
}

int Runtime::RealSpawn(Proc* proc, const std::string& name, ProcessFn fn) {
  real_tuple_ops_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(mu_);
  int machine = PickMachineLocked();
  assert(machine >= 0 && "machines never fail in real mode");
  // The new thread passes the start gate immediately (started_real_ is set).
  (void)proc;
  return SpawnLocked(name, machine, std::move(fn), NowReal());
}

// --- ProcessContext forwarding -------------------------------------------

void ProcessContext::Out(Tuple tuple) {
  runtime_->OpOut(proc_, std::move(tuple));
}

void ProcessContext::In(const Template& tmpl, Tuple* result) {
  runtime_->OpIn(proc_, tmpl, result, /*blocking=*/true, /*remove=*/true);
}

bool ProcessContext::Inp(const Template& tmpl, Tuple* result) {
  return runtime_->OpIn(proc_, tmpl, result, /*blocking=*/false,
                        /*remove=*/true);
}

void ProcessContext::Rd(const Template& tmpl, Tuple* result) {
  runtime_->OpIn(proc_, tmpl, result, /*blocking=*/true, /*remove=*/false);
}

bool ProcessContext::Rdp(const Template& tmpl, Tuple* result) {
  return runtime_->OpIn(proc_, tmpl, result, /*blocking=*/false,
                        /*remove=*/false);
}

void ProcessContext::XStart() { runtime_->OpXStart(proc_); }

void ProcessContext::XCommit() {
  runtime_->OpXCommit(proc_, /*has_continuation=*/false, Tuple());
}

void ProcessContext::XCommit(Tuple continuation) {
  runtime_->OpXCommit(proc_, /*has_continuation=*/true,
                      std::move(continuation));
}

bool ProcessContext::XRecover(Tuple* continuation) {
  return runtime_->OpXRecover(proc_, continuation);
}

void ProcessContext::Compute(double work_units) {
  runtime_->OpCompute(proc_, work_units);
}

int ProcessContext::Spawn(const std::string& name, ProcessFn fn) {
  return runtime_->OpSpawn(proc_, name, std::move(fn));
}

double ProcessContext::Now() const { return proc_->clock; }

}  // namespace fpdm::plinda
