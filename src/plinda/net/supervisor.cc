#include "plinda/net/supervisor.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "plinda/net/endpoint.h"
#include "plinda/net/wire.h"

namespace fpdm::plinda::net {

namespace {

using Clock = std::chrono::steady_clock;

bool FillExitInfo(pid_t pid, int status, ExitInfo* info) {
  info->pid = pid;
  if (WIFEXITED(status)) {
    info->exited = true;
    info->exit_code = WEXITSTATUS(status);
    return true;
  }
  if (WIFSIGNALED(status)) {
    info->signaled = true;
    info->signal_number = WTERMSIG(status);
    return true;
  }
  return false;  // stopped/continued: not an exit
}

/// Sleeps `*delay`, then doubles it up to `cap`. A wait that ends within
/// microseconds (a forked server binding its socket, a killed process being
/// reaped) then costs about that long, while a long one polls no faster
/// than `cap`.
void Backoff(Clock::duration* delay, Clock::duration cap) {
  std::this_thread::sleep_for(*delay);
  *delay = std::min(*delay * 2, cap);
}

constexpr Clock::duration kFirstBackoff = std::chrono::microseconds(100);

}  // namespace

pid_t ForkChild(const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  // In the child: run the body and leave without unwinding the parent's
  // state (no atexit handlers, no static destructors — this is a process
  // that shares the parent's address-space snapshot).
  int code = 1;
  try {
    code = body();
  } catch (...) {
    code = 1;
  }
  ::_exit(code);
}

pid_t ForkServerProcess(const SpaceServerOptions& options) {
  return ForkChild([options] {
    if (!options.stderr_file.empty()) {
      // Append (not truncate): restarts of a crashed server share the file,
      // so a post-mortem sees the whole incarnation history.
      const int fd = ::open(options.stderr_file.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd >= 0) {
        ::dup2(fd, 2);
        ::close(fd);
      }
    }
    SpaceServer server(options);
    return server.Serve();
  });
}

void KillProcess(pid_t pid) {
  if (pid > 0) ::kill(pid, SIGKILL);
}

bool ReapAny(const std::vector<pid_t>& pids, ExitInfo* info) {
  for (const pid_t pid : pids) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid && FillExitInfo(pid, status, info)) return true;
  }
  return false;
}

bool WaitForExit(pid_t pid, double timeout_s, ExitInfo* info) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  Clock::duration delay = kFirstBackoff;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid && FillExitInfo(pid, status, info)) return true;
    if (r < 0 && errno == ECHILD) return false;  // not our child / gone
    if (Clock::now() >= deadline) return false;
    Backoff(&delay, std::chrono::milliseconds(2));
  }
}

size_t MaxSocketPathLength() {
  return sizeof(sockaddr_un{}.sun_path) - 1;
}

bool SocketPathFits(const std::string& path) {
  return path.size() <= MaxSocketPathLength();
}

bool WaitForSocket(const std::string& path, double timeout_s) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  sockaddr_un addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (!SocketPathFits(path)) return false;
  ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  Clock::duration delay = kFirstBackoff;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      const int rc =
          ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
      ::close(fd);
      if (rc == 0) return true;
    }
    if (Clock::now() >= deadline) return false;
    Backoff(&delay, std::chrono::milliseconds(5));
  }
}

bool WaitForEndpoint(const std::string& endpoint_text, double timeout_s) {
  Endpoint endpoint;
  std::string error;
  if (!ParseEndpoint(endpoint_text, &endpoint, &error)) return false;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    return WaitForSocket(endpoint.path, timeout_s);
  }
  // TCP: a bare connect only proves the *listener* exists — and with
  // supervisor-pre-bound listeners it exists even while the server process
  // is dead (the kernel queues connections in the backlog). Prove the
  // server itself is serving with one control-HELLO round trip per attempt.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  std::string probe;
  {
    Request request;
    request.op = Op::kHello;
    request.pid = -1;
    AppendFrame(EncodeRequest(request), &probe);
  }
  Clock::duration delay = kFirstBackoff;
  for (;;) {
    const int fd = ConnectEndpoint(endpoint);
    if (fd >= 0) {
      size_t off = 0;
      bool sent = true;
      while (off < probe.size()) {
        const ssize_t w = ::send(fd, probe.data() + off, probe.size() - off,
                                 MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EINTR) continue;
          sent = false;
          break;
        }
        off += static_cast<size_t>(w);
      }
      bool replied = false;
      if (sent) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 200) > 0 && (pfd.revents & POLLIN) != 0) {
          char byte = 0;
          replied = ::recv(fd, &byte, 1, 0) > 0;
        }
      }
      ::close(fd);
      if (replied) return true;
    }
    if (Clock::now() >= deadline) return false;
    Backoff(&delay, std::chrono::milliseconds(5));
  }
}

std::string MakeStateDir() {
  const char* root = ::getenv("FPDM_TEST_STATE_ROOT");
  if (root == nullptr || *root == '\0') root = ::getenv("TMPDIR");
  std::string templ =
      std::string(root != nullptr && *root != '\0' ? root : "/tmp") +
      "/fpdm-dist-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) return "";
  return std::string(buf.data());
}

std::string ExpandLaunchTemplate(const std::string& templ,
                                 const WorkerLaunch& launch) {
  const std::pair<const char*, std::string> subs[] = {
      {"{endpoint}", launch.endpoint},
      {"{placement}", launch.placement},
      {"{pid}", std::to_string(launch.pid)},
      {"{incarnation}", std::to_string(launch.incarnation)},
      {"{status_file}", launch.status_file},
  };
  std::string out;
  out.reserve(templ.size());
  size_t pos = 0;
  while (pos < templ.size()) {
    bool matched = false;
    if (templ[pos] == '{') {
      for (const auto& [key, value] : subs) {
        const size_t key_len = ::strlen(key);
        if (templ.compare(pos, key_len, key) == 0) {
          out += value;
          pos += key_len;
          matched = true;
          break;
        }
      }
    }
    if (!matched) out += templ[pos++];
  }
  return out;
}

pid_t LaunchWorkerCommand(const std::string& templ,
                          const WorkerLaunch& launch) {
  const std::string command = ExpandLaunchTemplate(templ, launch);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::execl("/bin/sh", "sh", "-c", command.c_str(),
          static_cast<char*>(nullptr));
  ::_exit(127);
}

void RemoveTree(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace fpdm::plinda::net
