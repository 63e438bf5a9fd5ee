// Shared POSIX process helpers for the fork-based engines (the fleet
// supervisor and the mp rank-parallel backend).
//
// Both engines run the same loop shape — fork children with a heartbeat
// pipe, poll the pipes, reap with waitpid — and both are exposed to the
// same two classes of POSIX sharp edge this header owns:
//
//   * EINTR: a stray signal (profiler tick, test-injected SIGALRM, a
//     debugger attach) interrupts poll/read/waitpid.  The raw calls
//     return -1/EINTR, which the callers used to misread as a timeout
//     tick or end-of-data.  xpoll/xread/xwaitpid retry, with xpoll
//     re-arming on the *remaining* timeout so an interrupt storm cannot
//     shorten (or extend) a watchdog window.
//   * SIGPIPE: a child whose supervisor died writes its next heartbeat
//     into a pipe with no reader and is killed by SIGPIPE unless the
//     signal is ignored.  ignore_sigpipe() turns that death into a
//     visible EPIPE the writer can classify (orphaned, not crashed).
//
// Both engines also fork several compute processes that share the host,
// and a forked child inherits the parent's whole OpenMP team.
// apply_thread_budget() gives each child its share of the cores so
// concurrency x threads does not oversubscribe them.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <cstddef>
#include <string>

namespace tsem::fleet {

/// poll(2) retrying EINTR with the remaining timeout.  Returns poll's
/// result (>= 0, or -1 with errno for real failures only, never EINTR).
/// timeout_ms < 0 blocks indefinitely, as poll does.
int xpoll(struct pollfd* fds, unsigned long nfds, int timeout_ms);

/// read(2) retrying EINTR.  Returns read's result otherwise unchanged
/// (0 = EOF, -1/EAGAIN on a drained nonblocking fd).
ssize_t xread(int fd, void* buf, std::size_t n);

/// waitpid(2) retrying EINTR.
pid_t xwaitpid(pid_t pid, int* status, int options);

/// Idempotently install SIG_IGN for SIGPIPE in the calling process.
/// Every forked child that writes a heartbeat pipe must call this before
/// its first write (children inherit the disposition across fork, so the
/// parent may also install it once before forking).
void ignore_sigpipe();

/// Human-readable wait(2) status: "exit N" / "signal N".
std::string wait_status_str(int status);

/// Cores this process may run on: the size of its CPU affinity mask (the
/// online CPU count when the mask cannot be read).  At least 1.
int host_cores();

/// OpenMP team for one of `concurrency` processes sharing `cores`:
/// min(inherited, max(1, cores / concurrency)), never below 1.
int thread_budget(int inherited, int cores, int concurrency);

/// Set the calling process's OpenMP team to thread_budget(current team,
/// host_cores(), concurrency); a no-op without OpenMP.  Called in every
/// forked child of the fleet supervisor and of mp::MpSession, before the
/// child runs any parallel region.
void apply_thread_budget(int concurrency);

}  // namespace tsem::fleet
