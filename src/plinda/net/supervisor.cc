#include "plinda/net/supervisor.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>

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
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid && FillExitInfo(pid, status, info)) return true;
    if (r < 0 && errno == ECHILD) return false;  // not our child / gone
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
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

void RemoveTree(const std::string& path) {
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace fpdm::plinda::net
