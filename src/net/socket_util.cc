#include "net/socket_util.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace uctr::net {

Status ErrnoStatus(const std::string& prefix) {
  return Status::Unavailable(prefix + ": " + std::strerror(errno));
}

Result<HostPort> ParseHostPort(const std::string& spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument("expected HOST:PORT, got '" + spec + "'");
  }
  HostPort out;
  out.host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  long port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("bad port '" + port_text + "' in '" +
                                     spec + "'");
    }
    port = port * 10 + (c - '0');
    if (port > 65535) {
      return Status::InvalidArgument("port out of range in '" + spec + "'");
    }
  }
  out.port = static_cast<uint16_t>(port);
  return out;
}

Result<std::vector<HostPort>> ParseHostPortList(const std::string& list) {
  std::vector<HostPort> endpoints;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = std::min(list.find(',', pos), list.size());
    std::string piece = list.substr(pos, comma - pos);
    pos = comma + 1;
    if (piece.empty()) continue;
    HostPort endpoint;
    UCTR_ASSIGN_OR_RETURN(endpoint, ParseHostPort(piece));
    if (endpoint.port == 0) {
      return Status::InvalidArgument("endpoint '" + piece +
                                     "' needs an explicit port");
    }
    endpoints.push_back(std::move(endpoint));
  }
  if (endpoints.empty()) {
    return Status::InvalidArgument("no HOST:PORT in '" + list + "'");
  }
  return endpoints;
}

Result<std::string> ResolveIPv4(const std::string& host) {
  struct in_addr direct = {};
  if (inet_pton(AF_INET, host.c_str(), &direct) == 1) return host;
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* info = nullptr;
  int rc = getaddrinfo(host.c_str(), nullptr, &hints, &info);
  if (rc != 0 || info == nullptr) {
    return Status::NotFound("cannot resolve host '" + host +
                            "': " + gai_strerror(rc));
  }
  char text[INET_ADDRSTRLEN] = {};
  auto* addr = reinterpret_cast<struct sockaddr_in*>(info->ai_addr);
  inet_ntop(AF_INET, &addr->sin_addr, text, sizeof(text));
  freeaddrinfo(info);
  return std::string(text);
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  std::string ip;
  UCTR_ASSIGN_OR_RETURN(ip, ResolveIPv4(host));
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return ErrnoStatus("socket");
  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, ip.c_str(), &addr.sin_addr);
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
              sizeof(addr)) != 0) {
    Status s = ErrnoStatus("connect " + ip + ":" + std::to_string(port));
    close(fd);
    return s;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace uctr::net
