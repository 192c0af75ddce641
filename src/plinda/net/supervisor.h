#ifndef FPDM_PLINDA_NET_SUPERVISOR_H_
#define FPDM_PLINDA_NET_SUPERVISOR_H_

#include <sys/types.h>

#include <functional>
#include <string>
#include <vector>

#include "plinda/net/server.h"

namespace fpdm::plinda::net {

/// fork()/waitpid() helpers for the distributed runtime and its tests.
/// Callers must be effectively single-threaded at fork time (the
/// distributed supervisor loop is, by construction).

/// Forks a child that runs `body` and _exit()s with its return value.
/// Returns the child pid, or -1 on fork failure.
pid_t ForkChild(const std::function<int()>& body);

/// Forks a SpaceServer process serving `options`. The child recovers from
/// options.state_dir, so re-forking after a kill resumes the crashed
/// server's space from its checkpoint + log.
pid_t ForkServerProcess(const SpaceServerOptions& options);

/// SIGKILL, best effort — models a machine crash (no cleanup runs).
void KillProcess(pid_t pid);

struct ExitInfo {
  pid_t pid = -1;
  bool exited = false;       // child called _exit
  int exit_code = 0;         // meaningful when exited
  bool signaled = false;     // child was killed by a signal
  int signal_number = 0;     // meaningful when signaled
};

/// Non-blocking reap: checks each pid in `pids` once (WNOHANG); fills
/// `*info` for the first one that has exited. Deliberately does not use
/// waitpid(-1), so it never steals children owned by someone else in the
/// same process (other Runtime instances, test fixtures).
bool ReapAny(const std::vector<pid_t>& pids, ExitInfo* info);

/// Blocks (polling) until `pid` exits or the timeout lapses.
bool WaitForExit(pid_t pid, double timeout_s, ExitInfo* info);

/// Longest Unix-domain socket path the platform accepts (sun_path minus
/// the NUL). Paths beyond this silently truncate in naive code; everything
/// here rejects them instead — see SocketPathFits.
size_t MaxSocketPathLength();

/// True if `path` fits sockaddr_un::sun_path. Callers with a too-long path
/// (typically a very long $TMPDIR) must fail up front with a structured
/// error rather than bind a truncated path.
bool SocketPathFits(const std::string& path);

/// Polls until something is accepting connections on the Unix-domain
/// socket at `path`. Returns false immediately (no timeout burn) when the
/// path cannot fit sun_path.
bool WaitForSocket(const std::string& path, double timeout_s);

/// Polls until a SpaceServer is *serving* at `endpoint` ("unix:<path>" /
/// "tcp:<host>:<port>"). Unix endpoints use the plain connect probe of
/// WaitForSocket. TCP endpoints need a full round trip — connect, send a
/// framed control HELLO (pid -1), wait for reply bytes — because the
/// supervisor pre-binds TCP listeners and passes them to the server by fd:
/// the kernel accepts into the backlog even while the server process is
/// dead, so a bare connect succeeding proves nothing about the server.
/// Returns false immediately on a malformed endpoint.
bool WaitForEndpoint(const std::string& endpoint, double timeout_s);

/// Creates a fresh private directory for sockets + server state (mkdtemp
/// under $FPDM_TEST_STATE_ROOT, else $TMPDIR, else /tmp). Tests and CI set
/// FPDM_TEST_STATE_ROOT to collect every run's state under one uploadable
/// root. Returns "" on failure.
std::string MakeStateDir();

/// Recursively removes a state directory. Best effort.
void RemoveTree(const std::string& path);

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_SUPERVISOR_H_
