#ifndef FPDM_PLINDA_NET_ENDPOINT_H_
#define FPDM_PLINDA_NET_ENDPOINT_H_

#include <cstdint>
#include <string>

namespace fpdm::plinda::net {

/// Accept-queue depth for every listening socket (Unix-domain and TCP).
inline constexpr int kListenBacklog = 128;

/// A parsed transport address. The textual grammar is
///
///   unix:<path>          Unix-domain stream socket at <path>
///   tcp:<host>:<port>    TCP stream socket; host is a name or numeric
///                        address, port 0 asks the kernel for a free port
///                        (ListenEndpoint resolves it back)
///
/// A bare string with no scheme prefix is read as a Unix-domain path — the
/// pre-endpoint "socket_path" strings keep working unchanged. The retired
/// "shm:" scheme is rejected rather than read as a relative path. Every
/// endpoint-bearing string in the system (options structs, state files)
/// uses this grammar.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;   // kUnix
  std::string host;   // kTcp
  uint16_t port = 0;  // kTcp; 0 = kernel-assigned at bind
};

/// Parses `text` into `*endpoint`. Returns false on a malformed string
/// (empty path, "tcp:" without a host or port, a non-numeric or
/// out-of-range port, the retired "shm:" scheme) with a human-readable
/// reason in `*error`.
bool ParseEndpoint(const std::string& text, Endpoint* endpoint,
                   std::string* error);

/// Canonical textual form ("unix:<path>" / "tcp:<host>:<port>").
std::string FormatEndpoint(const Endpoint& endpoint);

/// True if `text` parses and — for a Unix-domain endpoint — the path fits
/// sockaddr_un::sun_path. The structured-error twin of SocketPathFits.
bool EndpointUsable(const std::string& text, std::string* error);

/// Sets TCP_NODELAY + SO_KEEPALIVE on a connected or accepted TCP socket.
/// The request/reply protocol is latency-bound (small frames, synchronous
/// round trips), so Nagle must be off; keepalive reaps connections whose
/// remote host vanished without a FIN. Best effort.
void ApplyTcpSocketOptions(int fd);

/// Blocking connect to `endpoint`. TCP endpoints resolve via getaddrinfo
/// and get ApplyTcpSocketOptions on success. Returns the connected fd, or
/// -1 with the reason in `*error` (optional). A refused/unreachable
/// connect is an *error return*, not a structural failure — callers with a
/// reconnect window retry; ParseEndpoint-level failures should be caught
/// before ever calling this.
int ConnectEndpoint(const Endpoint& endpoint, std::string* error = nullptr);

/// Binds + listens on `*endpoint` with `backlog`. A TCP endpoint with port
/// 0 is resolved: the kernel-assigned port is written back into
/// endpoint->port, so the caller can publish the concrete address before
/// anyone connects (the supervisor pre-binds the server's listener this way
/// — tests never race on ports). Unix endpoints unlink a stale path first.
/// Returns the listening fd, or -1 with the reason in `*error`.
int ListenEndpoint(Endpoint* endpoint, int backlog, std::string* error);

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_ENDPOINT_H_
