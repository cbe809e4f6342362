#include "harness/isolate.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

IsolatedResult run_isolated(const std::function<std::string()>& work,
                            double timeout_s) {
  IsolatedResult out;
  int fds[2];
  if (pipe(fds) != 0) {
    out.detail = "pipe failed";
    return out;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    out.detail = "fork failed";
    return out;
  }
  if (pid == 0) {
    close(fds[0]);
    const bool written = write_all(fds[1], work());
    close(fds[1]);
    _exit(written ? 0 : 1);
  }
  close(fds[1]);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  bool timed_out = false;
  char buf[1 << 16];
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ready = poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready == 0) {
      timed_out = true;
      break;
    }
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // end of stream: the child is done writing
    out.bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (timed_out) kill(pid, SIGKILL);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (timed_out) {
    out.status = IsolatedResult::Status::kTimedOut;
    out.bytes.clear();
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    out.status = IsolatedResult::Status::kOk;
  } else {
    out.detail =
        WIFSIGNALED(status)
            ? "child killed by signal " + std::to_string(WTERMSIG(status))
            : "child exited with code " + std::to_string(WEXITSTATUS(status));
  }
  return out;
}

double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
