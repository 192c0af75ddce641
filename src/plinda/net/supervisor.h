#ifndef FPDM_PLINDA_NET_SUPERVISOR_H_
#define FPDM_PLINDA_NET_SUPERVISOR_H_

#include <sys/types.h>

#include <functional>
#include <string>
#include <vector>

#include "plinda/net/endpoint.h"  // WaitForEndpoint
#include "plinda/net/server.h"

namespace fpdm::plinda::net {

/// fork()/waitpid() helpers for the distributed runtime and its tests.
/// Callers must be effectively single-threaded at fork time (the
/// distributed supervisor loop is, by construction). Waiting until a forked
/// server accepts connections is WaitForEndpoint, in plinda/net/endpoint.h.

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

/// Creates a fresh private directory for sockets + server state (mkdtemp
/// under $FPDM_TEST_STATE_ROOT, else $TMPDIR, else /tmp). Tests and CI set
/// FPDM_TEST_STATE_ROOT to collect every run's state under one uploadable
/// root. Returns "" on failure.
std::string MakeStateDir();

/// Recursively removes a state directory. Best effort.
void RemoveTree(const std::string& path);

}  // namespace fpdm::plinda::net

#endif  // FPDM_PLINDA_NET_SUPERVISOR_H_
