#include "mp/runtime.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <utility>

#include "common/check.hpp"
#include "fleet/proc.hpp"

namespace tsem::mp {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool fail_err(std::string* err, const std::string& what) {
  if (err) *err = what;
  return false;
}

/// Exit code for a rank whose comm wait aborted/timed out (distinct from
/// user failure codes so the parent's report names the mechanism).
constexpr int kRankExitAborted = 74;
constexpr int kRankExitException = 75;

void sleep_us(int us) {
  timespec ts{};
  ts.tv_sec = us / 1'000'000;
  ts.tv_nsec = static_cast<long>(us % 1'000'000) * 1000;
  ::nanosleep(&ts, nullptr);
}

/// TSEM_MP_SEND_DELAY="rank:us" — per-publish delay injected on one rank
/// (slow-neighbor test seam).  Returns {-1, 0} when unset/malformed.
std::pair<int, int> parse_send_delay() {
  const char* env = std::getenv("TSEM_MP_SEND_DELAY");
  if (!env) return {-1, 0};
  int rank = -1, us = 0;
  if (std::sscanf(env, "%d:%d", &rank, &us) != 2 || rank < 0 || us < 0)
    return {-1, 0};
  return {rank, us};
}

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::Compute: return "compute";
    case Phase::Gs: return "gs";
    case Phase::Allreduce: return "allreduce";
    case Phase::Coarse: return "coarse";
  }
  return "?";
}

MpSession::MpSession(MpOptions opt) : opt_(opt) {
  TSEM_REQUIRE(opt_.nranks >= 1);
  // Oversubscription: with more ranks than cores every liveness bound
  // must stretch by the scheduling slowdown factor, and spin waits must
  // back off (a descheduled peer needs OUR timeslice to make progress).
  const long ncores = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (ncores > 0 && opt_.nranks > ncores)
    oversub_ = static_cast<int>(
        (opt_.nranks + ncores - 1) / ncores);
  if (opt_.auto_oversubscribe && oversub_ > 1) {
    opt_.comm_timeout_ms *= oversub_;
    opt_.watchdog_ms *= oversub_;
  }
  if (opt_.spin_sleep_us < 0)
    opt_.spin_sleep_us = oversub_ > 1 ? 50 : 0;
  void* mem = arena_.alloc(sizeof(Control));
  ctl_ = new (mem) Control{};
  ctl_->abort.store(0, std::memory_order_relaxed);
  ctl_->barrier.init(opt_.nranks);
  allreduce_slots_ =
      arena_.alloc_n<double>(2 * static_cast<std::size_t>(opt_.nranks));
  phase_sec_ = arena_.alloc_n<double>(static_cast<std::size_t>(opt_.nranks) *
                                      kNumPhases);
}

double MpSession::phase_max_seconds(Phase p) const {
  double mx = 0.0;
  for (int r = 0; r < opt_.nranks; ++r)
    mx = std::max(mx, phase_seconds(r, p));
  return mx;
}

double MpSession::phase_seconds(int rank, Phase p) const {
  return phase_sec_[static_cast<std::size_t>(rank) * kNumPhases +
                    static_cast<int>(p)];
}

bool MpSession::run(const std::function<int(MpRank&)>& fn,
                    std::string* err) {
  TSEM_REQUIRE(!ran_);
  ran_ = true;
  arena_.seal();
  // The parent may be about to die too (test drills); a rank writing a
  // heartbeat must get EPIPE, not SIGPIPE — same contract as fleet
  // workers, and children inherit the disposition.
  fleet::ignore_sigpipe();
  const auto [delay_rank, delay_us] = parse_send_delay();

  struct RankProc {
    pid_t pid = -1;
    int fd = -1;
    Clock::time_point last_beat{};
    bool exited = false;
    int status = 0;
  };
  std::vector<RankProc> procs(static_cast<std::size_t>(opt_.nranks));

  for (int r = 0; r < opt_.nranks; ++r) {
    int p[2];
    if (::pipe(p) != 0) {
      ctl_->abort.store(1, std::memory_order_release);
      for (int k = 0; k < r; ++k) ::kill(procs[k].pid, SIGKILL);
      for (int k = 0; k < r; ++k) {
        int st = 0;
        fleet::xwaitpid(procs[k].pid, &st, 0);
        ::close(procs[k].fd);
      }
      return fail_err(err, std::string("mp: pipe: ") + std::strerror(errno));
    }
    // Children inherit fully-buffered stdio; drain before fork so rank
    // output is never duplicated (same hazard as the fleet supervisor).
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(p[0]);
      ::close(p[1]);
      ctl_->abort.store(1, std::memory_order_release);
      for (int k = 0; k < r; ++k) ::kill(procs[k].pid, SIGKILL);
      for (int k = 0; k < r; ++k) {
        int st = 0;
        fleet::xwaitpid(procs[k].pid, &st, 0);
        ::close(procs[k].fd);
      }
      return fail_err(err, std::string("mp: fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Rank process: drop parent-side fds, run the rank body, _exit —
      // never return into the caller's stack.
      ::close(p[0]);
      for (int k = 0; k < r; ++k) ::close(procs[k].fd);
      fleet::apply_thread_budget(opt_.nranks);
      MpRank ctx;
      ctx.ctl_ = ctl_;
      ctx.allreduce_slots_ = allreduce_slots_;
      ctx.phase_sec_ = phase_sec_;
      ctx.rank_ = r;
      ctx.nranks_ = opt_.nranks;
      ctx.comm_timeout_ms_ = opt_.comm_timeout_ms;
      ctx.spin_sleep_us_ = opt_.spin_sleep_us;
      ctx.send_delay_us_ = (r == delay_rank) ? delay_us : 0;
      ctx.hb_fd_ = p[1];
      ctx.maybe_beat();  // announce liveness before any user code
      int code = 0;
      try {
        code = fn(ctx);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[mp rank %d] exception: %s\n", r, e.what());
        code = kRankExitException;
      } catch (...) {
        std::fprintf(stderr, "[mp rank %d] unknown exception\n", r);
        code = kRankExitException;
      }
      if (code != 0) ctl_->abort.store(1, std::memory_order_release);
      std::fflush(stdout);
      std::fflush(stderr);
      ::_exit(code & 0xff);
    }
    ::close(p[1]);
    ::fcntl(p[0], F_SETFL, O_NONBLOCK);
    procs[static_cast<std::size_t>(r)].pid = pid;
    procs[static_cast<std::size_t>(r)].fd = p[0];
    procs[static_cast<std::size_t>(r)].last_beat = Clock::now();
  }

  // Supervisor loop (fleet shape): poll heartbeats, reap, watchdog.
  std::string first_failure;
  bool abort_raised = false;
  Clock::time_point abort_since{};
  auto note_failure = [&](int r, const std::string& what) {
    // Chronological (reap-order) join: an aborted peer often exits before
    // the root cause is reaped, so one entry alone can mislead.
    if (!first_failure.empty()) first_failure += "; ";
    first_failure += "mp rank " + std::to_string(r) + ": " + what;
    if (!abort_raised) {
      ctl_->abort.store(1, std::memory_order_release);
      abort_raised = true;
      abort_since = Clock::now();
    }
  };

  int alive = opt_.nranks;
  std::vector<pollfd> fds;
  char buf[256];
  while (alive > 0) {
    fds.clear();
    for (const RankProc& rp : procs)
      if (!rp.exited) fds.push_back(pollfd{rp.fd, POLLIN, 0});
    fleet::xpoll(fds.data(), fds.size(), opt_.poll_ms);

    for (RankProc& rp : procs) {
      if (rp.exited) continue;
      for (;;) {
        const ssize_t n = fleet::xread(rp.fd, buf, sizeof buf);
        if (n <= 0) break;
        rp.last_beat = Clock::now();
      }
    }

    for (int r = 0; r < opt_.nranks; ++r) {
      RankProc& rp = procs[static_cast<std::size_t>(r)];
      if (rp.exited) continue;
      int status = 0;
      const pid_t got = fleet::xwaitpid(rp.pid, &status, WNOHANG);
      if (got != rp.pid) continue;
      rp.exited = true;
      rp.status = status;
      ::close(rp.fd);
      --alive;
      if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
        std::string what = fleet::wait_status_str(status);
        if (WIFEXITED(status) && WEXITSTATUS(status) == kRankExitAborted)
          what += " (comm wait aborted/timed out)";
        if (WIFEXITED(status) && WEXITSTATUS(status) == kRankExitException)
          what += " (uncaught exception)";
        note_failure(r, what);
      }
    }

    const Clock::time_point now = Clock::now();
    for (int r = 0; r < opt_.nranks; ++r) {
      RankProc& rp = procs[static_cast<std::size_t>(r)];
      if (rp.exited) continue;
      if (seconds_between(rp.last_beat, now) * 1000.0 >
          static_cast<double>(opt_.watchdog_ms)) {
        note_failure(r, "watchdog: no heartbeat for " +
                            std::to_string(opt_.watchdog_ms) + "ms");
        ::kill(rp.pid, SIGKILL);
      }
    }

    // Abort escalation: peers get a grace window to observe the flag
    // and exit on their own (clean logs); stragglers are killed.
    if (abort_raised &&
        seconds_between(abort_since, Clock::now()) > 2.0) {
      for (RankProc& rp : procs)
        if (!rp.exited) ::kill(rp.pid, SIGKILL);
      abort_since = Clock::now();  // re-arm, don't spam
    }
  }

  if (!first_failure.empty()) return fail_err(err, first_failure);
  return true;
}

// ---------------------------------------------------------------------------
// MpRank

void MpRank::maybe_beat() {
  if (hb_fd_ < 0) return;
  const std::int64_t t = now_ns();
  if (t - last_beat_ns_ < 50'000'000) return;  // 50ms cadence
  last_beat_ns_ = t;
  errno = 0;
  if (::write(hb_fd_, ".", 1) < 0 && errno == EPIPE) {
    // Supervisor gone: nobody will reap results, so tear the session
    // down instead of spinning as an orphan.
    ctl_->abort.store(1, std::memory_order_release);
    hb_fd_ = -1;
  }
}

template <class Pred>
bool MpRank::spin_until(Pred&& ready) {
  const std::int64_t start = now_ns();
  const std::int64_t timeout =
      static_cast<std::int64_t>(comm_timeout_ms_) * 1'000'000;
  int iter = 0;
  long probes = 0;
  for (;;) {
    if (ready()) return true;
    if (ctl_->abort.load(std::memory_order_acquire)) return false;
    // Single-core friendliness: the peer we are waiting on may need our
    // timeslice to make progress, so always yield between probes.
    ::sched_yield();
    // Oversubscribed backpressure: a yield storm among waiting ranks
    // starves the runnable ones, so after a burst of pure yields (fast
    // path for an almost-ready peer) back off with short sleeps that
    // hand the core over for a full scheduler tick's worth of work.
    if (spin_sleep_us_ > 0 && ++probes > 256) sleep_us(spin_sleep_us_);
    if (++iter >= 64) {
      iter = 0;
      maybe_beat();
      if (now_ns() - start > timeout) {
        fail();  // convert a protocol deadlock into an error, not a hang
        return false;
      }
    }
  }
}

bool MpRank::ok() const {
  return ctl_->abort.load(std::memory_order_acquire) == 0;
}

void MpRank::fail() { ctl_->abort.store(1, std::memory_order_release); }

bool MpRank::barrier() {
  maybe_beat();
  const int my_sense = 1 - barrier_sense_;
  if (ctl_->barrier.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      nranks_) {
    // Last arrival: reset the counter for the next episode, then flip
    // the shared sense to release everyone (order matters: the counter
    // must be reset before any peer can arrive at the next barrier).
    ctl_->barrier.arrived.store(0, std::memory_order_relaxed);
    ctl_->barrier.sense.store(my_sense, std::memory_order_release);
  } else {
    if (!spin_until([&] {
          return ctl_->barrier.sense.load(std::memory_order_acquire) ==
                 my_sense;
        }))
      return false;
  }
  barrier_sense_ = my_sense;
  return true;
}

bool MpRank::send(ShmChannel* ch, const double* data, std::size_t n) {
  maybe_beat();
  if (send_delay_us_ > 0) sleep_us(send_delay_us_);  // slow-neighbor seam
  TSEM_REQUIRE(n <= ch->cap_words);
  // Single producer: seq is ours to read relaxed.
  const std::uint64_t m = ch->seq.load(std::memory_order_relaxed);
  if (!spin_until([&] {
        return m - ch->ack.load(std::memory_order_acquire) < ch->nslots;
      }))
    return false;
  *ch->slot_len(m) = n;
  std::memcpy(ch->slot_data(m), data, n * sizeof(double));
  ch->seq.store(m + 1, std::memory_order_release);
  return true;
}

bool MpRank::recv(ShmChannel* ch, double* data, std::size_t n) {
  maybe_beat();
  // Single consumer: ack is ours to read relaxed.
  const std::uint64_t m = ch->ack.load(std::memory_order_relaxed);
  if (!spin_until(
          [&] { return ch->seq.load(std::memory_order_acquire) > m; }))
    return false;
  if (*ch->slot_len(m) != n) {
    fail();  // protocol mismatch: lengths are part of the plan
    return false;
  }
  std::memcpy(data, ch->slot_data(m), n * sizeof(double));
  ch->ack.store(m + 1, std::memory_order_release);
  return true;
}

bool MpRank::allreduce_sum(double x, double* out) {
  // Two slot arrays alternated by call parity: the barrier of call k+1
  // orders every rank's read of array (k mod 2) before any rank's write
  // of call k+2 into the same array, so one barrier per call suffices.
  double* slots =
      allreduce_slots_ + (allreduce_calls_ & 1u) * nranks_;
  ++allreduce_calls_;
  slots[rank_] = x;
  if (!barrier()) return false;
  // Fixed ascending-rank association: bitwise identical on every rank,
  // every run, and equal to the single-process reference sum.
  double acc = 0.0;
  for (int r = 0; r < nranks_; ++r) acc += slots[r];
  *out = acc;
  return true;
}

void MpRank::phase_add(Phase p, double seconds) {
  phase_sec_[static_cast<std::size_t>(rank_) * kNumPhases +
             static_cast<int>(p)] += seconds;
}

}  // namespace tsem::mp
