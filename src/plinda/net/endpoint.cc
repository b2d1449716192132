#include "plinda/net/endpoint.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>

namespace fpdm::plinda::net {

namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

int FailFd(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return -1;
}

/// Fills a sockaddr_un for `path`, rejecting paths that would silently
/// truncate in the fixed sun_path field.
bool FillUnixAddr(const std::string& path, sockaddr_un* addr,
                  std::string* error) {
  ::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    return Fail(error, "socket path exceeds the sun_path limit (" +
                           std::to_string(sizeof(addr->sun_path)) +
                           " bytes): " + path);
  }
  ::strncpy(addr->sun_path, path.c_str(), sizeof(addr->sun_path) - 1);
  return true;
}

}  // namespace

bool ParseEndpoint(const std::string& text, Endpoint* endpoint,
                   std::string* error) {
  if (text.rfind("tcp:", 0) == 0) {
    const std::string rest = text.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      return Fail(error, "bad endpoint \"" + text +
                             "\": tcp endpoints are tcp:<host>:<port>");
    }
    const std::string host = rest.substr(0, colon);
    const std::string port_text = rest.substr(colon + 1);
    if (host.empty()) {
      return Fail(error, "bad endpoint \"" + text + "\": empty host");
    }
    if (port_text.empty()) {
      return Fail(error, "bad endpoint \"" + text + "\": empty port");
    }
    char* end = nullptr;
    const long port = std::strtol(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
      return Fail(error, "bad endpoint \"" + text + "\": port \"" +
                             port_text + "\" is not in [0, 65535]");
    }
    endpoint->kind = Endpoint::Kind::kTcp;
    endpoint->host = host;
    endpoint->port = static_cast<uint16_t>(port);
    endpoint->path.clear();
    return true;
  }
  // "unix:<path>", or a bare path for backward compatibility. A leading
  // run of letters before a ':' is a scheme, and any scheme but "unix" is
  // refused: read as a path, "udp:h:1" would bind a socket of that name.
  constexpr char kLetters[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  const size_t scheme_end = text.find_first_not_of(kLetters);
  std::string path = text;
  if (scheme_end != std::string::npos && scheme_end > 0 &&
      text[scheme_end] == ':') {
    const std::string scheme = text.substr(0, scheme_end);
    if (scheme != "unix") {
      return Fail(error, "bad endpoint \"" + text + "\": unknown scheme \"" +
                             scheme + ":\" (expected unix: or tcp:)");
    }
    path = text.substr(scheme_end + 1);
  }
  if (path.empty()) {
    return Fail(error, "bad endpoint \"" + text + "\": empty socket path");
  }
  endpoint->kind = Endpoint::Kind::kUnix;
  endpoint->path = std::move(path);
  endpoint->host.clear();
  endpoint->port = 0;
  return true;
}

std::string FormatEndpoint(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    return "tcp:" + endpoint.host + ":" + std::to_string(endpoint.port);
  }
  return "unix:" + endpoint.path;
}

bool EndpointUsable(const std::string& text, std::string* error) {
  Endpoint endpoint;
  if (!ParseEndpoint(text, &endpoint, error)) return false;
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    return FillUnixAddr(endpoint.path, &addr, error);
  }
  return true;
}

void ApplyTcpSocketOptions(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
}

int ConnectEndpoint(const Endpoint& endpoint, std::string* error) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    if (!FillUnixAddr(endpoint.path, &addr, error)) return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return FailFd(error, "socket(AF_UNIX) failed");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      const int saved = errno;
      ::close(fd);
      return FailFd(error, "connect to " + endpoint.path + " failed: " +
                               ::strerror(saved));
    }
    return fd;
  }
  addrinfo hints;
  ::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port_text = std::to_string(endpoint.port);
  const int rc =
      ::getaddrinfo(endpoint.host.c_str(), port_text.c_str(), &hints, &result);
  if (rc != 0) {
    return FailFd(error, "cannot resolve host \"" + endpoint.host +
                             "\": " + ::gai_strerror(rc));
  }
  int last_errno = 0;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(result);
      ApplyTcpSocketOptions(fd);
      return fd;
    }
    last_errno = errno;
    ::close(fd);
  }
  ::freeaddrinfo(result);
  return FailFd(error, "connect to " + FormatEndpoint(endpoint) +
                           " failed: " + ::strerror(last_errno));
}

int ListenEndpoint(Endpoint* endpoint, int backlog, std::string* error) {
  if (endpoint->kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    if (!FillUnixAddr(endpoint->path, &addr, error)) return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return FailFd(error, "socket(AF_UNIX) failed");
    ::unlink(endpoint->path.c_str());
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, backlog) != 0) {
      const int saved = errno;
      ::close(fd);
      return FailFd(error, "bind/listen on " + endpoint->path +
                               " failed: " + ::strerror(saved));
    }
    return fd;
  }
  addrinfo hints;
  ::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port_text = std::to_string(endpoint->port);
  const int rc = ::getaddrinfo(endpoint->host.c_str(), port_text.c_str(),
                               &hints, &result);
  if (rc != 0) {
    return FailFd(error, "cannot resolve host \"" + endpoint->host +
                             "\": " + ::gai_strerror(rc));
  }
  int fd = -1;
  int last_errno = 0;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, backlog) == 0) {
      break;
    }
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(result);
  if (fd < 0) {
    return FailFd(error, "bind/listen on " + FormatEndpoint(*endpoint) +
                             " failed: " + ::strerror(last_errno));
  }
  // Port-0 bind: report the kernel-assigned port back through the endpoint
  // so the caller can publish a concrete address before anyone connects.
  if (endpoint->port == 0) {
    sockaddr_storage bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      if (bound.ss_family == AF_INET) {
        endpoint->port =
            ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
      } else if (bound.ss_family == AF_INET6) {
        endpoint->port =
            ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
    if (endpoint->port == 0) {
      ::close(fd);
      return FailFd(error, "getsockname on " + FormatEndpoint(*endpoint) +
                               " did not resolve the bound port");
    }
  }
  return fd;
}

}  // namespace fpdm::plinda::net
