#ifndef UCTR_NET_SOCKET_UTIL_H_
#define UCTR_NET_SOCKET_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace uctr::net {

/// \brief A parsed `HOST:PORT` endpoint.
struct HostPort {
  std::string host;
  uint16_t port = 0;
};

/// \brief Parses "HOST:PORT" (e.g. "127.0.0.1:8080", "localhost:0").
/// The port may be 0 (bind-time ephemeral); the host may not be empty.
Result<HostPort> ParseHostPort(const std::string& spec);

/// \brief Parses a comma-separated list of endpoints to connect to
/// ("HOST:PORT[,HOST:PORT...]"); empty pieces are skipped. Each endpoint
/// needs an explicit nonzero port, and the list at least one endpoint.
Result<std::vector<HostPort>> ParseHostPortList(const std::string& list);

/// \brief Resolves `host` to an IPv4 dotted-quad string via getaddrinfo
/// (accepts dotted quads and names like "localhost").
Result<std::string> ResolveIPv4(const std::string& host);

/// \brief Opens a blocking TCP connection (IPv4) with TCP_NODELAY set.
/// Returns the connected fd.
Result<int> ConnectTcp(const std::string& host, uint16_t port);

/// \brief errno as a "prefix: strerror" Status.
Status ErrnoStatus(const std::string& prefix);

}  // namespace uctr::net

#endif  // UCTR_NET_SOCKET_UTIL_H_
