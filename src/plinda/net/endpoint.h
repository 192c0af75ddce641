#ifndef FPDM_PLINDA_NET_ENDPOINT_H_
#define FPDM_PLINDA_NET_ENDPOINT_H_

#include <string>

namespace fpdm::plinda::net {

/// Every server address is a Unix-domain stream socket, written as
///
///   unix:<path>   or a bare <path>
///
/// ParseEndpoint stores the socket path in `*path`. It fails, with a
/// human-readable reason in `*error` (optional), on an empty path, on a
/// path that does not fit sockaddr_un::sun_path (a server bound at a
/// silently truncated path is one no client ever reaches; a very long
/// $TMPDIR is the usual cause), and on the retired "tcp:" and "shm:"
/// schemes, which it names instead of reading them as relative paths that
/// no server ever binds.
bool ParseEndpoint(const std::string& text, std::string* path,
                   std::string* error = nullptr);

/// Blocking connect to the socket at `path`. Returns the connected fd, or
/// -1 with the reason in `*error` (optional). A refused connect is an
/// error return, not a structural failure: callers with a reconnect window
/// retry.
int ConnectSocket(const std::string& path, std::string* error = nullptr);

/// Removes a stale socket file at `path`, then binds and listens on it.
/// Returns the listening fd, or -1 with the reason in `*error`.
int ListenSocket(const std::string& path, std::string* error);

/// Polls every 5 ms until a connect to `endpoint` succeeds, that is, until
/// a server is accepting there. Returns false when `timeout_s` lapses, and
/// at once when ParseEndpoint refuses the endpoint.
bool WaitForEndpoint(const std::string& endpoint, double timeout_s);

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_ENDPOINT_H_
