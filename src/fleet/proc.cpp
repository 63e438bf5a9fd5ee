#include "fleet/proc.hpp"

#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace tsem::fleet {

int xpoll(struct pollfd* fds, unsigned long nfds, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      timeout_ms >= 0 ? Clock::now() + std::chrono::milliseconds(timeout_ms)
                      : Clock::time_point::max();
  int remaining = timeout_ms;
  for (;;) {
    const int rc = ::poll(fds, static_cast<nfds_t>(nfds), remaining);
    if (rc >= 0 || errno != EINTR) return rc;
    if (timeout_ms < 0) continue;  // infinite wait: just retry
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return 0;  // window elapsed: report timeout
    remaining = static_cast<int>(left.count());
  }
}

ssize_t xread(int fd, void* buf, std::size_t n) {
  for (;;) {
    const ssize_t rc = ::read(fd, buf, n);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

pid_t xwaitpid(pid_t pid, int* status, int options) {
  for (;;) {
    const pid_t rc = ::waitpid(pid, status, options);
    if (rc >= 0 || errno != EINTR) return rc;
  }
}

void ignore_sigpipe() {
  struct sigaction sa{};
  sa.sa_handler = SIG_IGN;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPIPE, &sa, nullptr);
}

std::string wait_status_str(int status) {
  if (WIFEXITED(status))
    return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "signal " + std::to_string(WTERMSIG(status));
  return "unknown wait status " + std::to_string(status);
}

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
    return CPU_COUNT(&set);
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int thread_budget(int inherited, int cores, int concurrency) {
  const int share = std::max(1, cores / std::max(1, concurrency));
  return std::max(1, std::min(inherited, share));
}

void apply_thread_budget(int concurrency) {
#ifdef _OPENMP
  omp_set_num_threads(
      thread_budget(omp_get_max_threads(), host_cores(), concurrency));
#else
  (void)concurrency;
#endif
}

}  // namespace tsem::fleet
