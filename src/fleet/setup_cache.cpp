#include "fleet/setup_cache.hpp"

#include <unistd.h>

#include <atomic>
#include <cstring>

#include "common/check.hpp"
#include "io/binfile.hpp"
#include "tensor/mxm.hpp"

namespace tsem::fleet {
namespace {

// Slot states in the low half of the ShmStateCell word.
constexpr std::uint32_t kEmpty = 0;
constexpr std::uint32_t kBuilding = 1;
constexpr std::uint32_t kReady = 2;
constexpr std::uint32_t kDisabled = 3;

// A racing publisher can flip a slot between the two seqlock reads; the
// retry bound only caps livelock, since each retry observes a NEW
// generation (real progress by someone).
constexpr int kSeqlockRetries = 4;

}  // namespace

struct SetupCache::SharedSlot {
  mp::ShmStateCell cell;
  std::atomic<std::int32_t> builder_pid;
  std::atomic<std::uint32_t> crc;
  std::atomic<std::uint64_t> bytes;
};

struct SetupCache::SharedStats {
  std::atomic<std::uint64_t> hits;
  std::atomic<std::uint64_t> misses;
  std::atomic<std::uint64_t> publishes;
  std::atomic<std::uint64_t> evictions;
  std::atomic<std::uint64_t> publish_failures;
};

SetupKey setup_key_for(const JobSpec& job) {
  SetupKey k;
  // Canonical text: every setup input the cached artifacts depend on.
  // Fleet jobs are all periodic [0,2pi]^2 Taylor-Green boxes (see
  // worker.cpp make_space), so the mesh spec digests to "box2d" + k.
  k.text = "box2d/k" + std::to_string(job.mesh_k) + "/N" +
           std::to_string(job.order) +
           (job.dealias ? "/dealias" : "/collocated");
  k.text += std::string("/isa=") + mxm_isa_runtime_name();
  k.digest = crc32(k.text.data(), k.text.size());
  return k;
}

std::vector<SetupKey> distinct_setup_keys(const std::vector<JobSpec>& jobs) {
  std::vector<SetupKey> keys;
  for (const JobSpec& j : jobs) {
    const SetupKey k = setup_key_for(j);
    bool seen = false;
    for (const SetupKey& e : keys) seen = seen || e.digest == k.digest;
    if (!seen) keys.push_back(k);
  }
  return keys;
}

std::size_t estimate_entry_bytes(const JobSpec& job) {
  const std::size_t k = static_cast<std::size_t>(job.mesh_k);
  const std::size_t n1 = static_cast<std::size_t>(job.order) + 1;
  const std::size_t nelem = k * k;
  const std::size_t nl = nelem * n1 * n1;
  // Mesh: coords + jac/bm + g (3 sym terms in 2D) + drdx (4) + ids + bits.
  std::size_t total = nl * 104 + nelem * 40 + 256;
  // FDM, worst case every element unique: per dim two m x m matrices +
  // inv_lambda (m^2), m <= n1 + 2 extended points.
  const std::size_t m1 = n1 + 2;
  total += nelem * (40 * m1 * m1 + 128);
  // XXT on the vertex mesh (n = nvert <= k^2 + perimeter): generous
  // per-row fill bound for the 2D nested-dissection factor.
  const std::size_t nvert = (k + 1) * (k + 1);
  total += nvert * 64 * 8 + 4096;
  // Dealias: 4 interpolation/derivative matrices + fine-grid jw + md.
  const std::size_t mfine = (3 * n1) / 2 + 1;
  total += mfine * n1 * 32 + nelem * mfine * mfine * 40 + 256;
  // Ghost exchange: anchor gather-scatter over nelem * 2*dim * ng1^(dim-1)
  // slots (int64 dense ids + two int32 group tables).
  total += nelem * 4 * n1 * 24 + 512;
  // Space connectivity: dense ids for every local node + group tables
  // covering the interface nodes.
  total += nl * 16 + 1024;
  // Bundle framing.
  total += 256;
  return total + total / 2 + 65536;
}

SetupCache::SetupCache(const std::vector<JobSpec>& jobs,
                       int entry_kb_override) {
  static_assert(sizeof(SharedSlot) <= 64,
                "slot header must fit the payload's 64-byte alignment pad");
  stats_ = static_cast<SharedStats*>(arena_.alloc(sizeof(SharedStats)));
  // One slot per distinct key.  Capacity is fixed when the key first
  // appears; same-shape jobs produce the same estimate, so first-wins is
  // exact.
  for (const JobSpec& j : jobs) {
    const SetupKey key = setup_key_for(j);
    const std::size_t cap =
        entry_kb_override > 0
            ? static_cast<std::size_t>(entry_kb_override) * 1024
            : estimate_entry_bytes(j);
    if (find_slot(key.digest) >= 0) continue;
    auto* mem = static_cast<std::uint8_t*>(arena_.alloc(64 + cap));
    SlotRef ref;
    ref.digest = key.digest;
    ref.hdr = reinterpret_cast<SharedSlot*>(mem);
    ref.payload = mem + 64;
    ref.capacity = cap;
    // Arena memory is zero-initialized: word == (gen 0, kEmpty) already.
    slots_.push_back(ref);
  }
}

int SetupCache::find_slot(std::uint32_t digest) const {
  for (std::size_t i = 0; i < slots_.size(); ++i)
    if (slots_[i].digest == digest) return static_cast<int>(i);
  return -1;
}

SetupCache::Lookup SetupCache::lookup(const SetupKey& key) {
  Lookup res;
  res.slot = find_slot(key.digest);
  if (res.slot < 0) {  // key not pre-allocated (shouldn't happen): cold
    stats_->misses.fetch_add(1, std::memory_order_relaxed);
    return res;
  }
  SlotRef& s = slots_[static_cast<std::size_t>(res.slot)];
  for (int tries = 0; tries < kSeqlockRetries; ++tries) {
    const std::uint64_t w = s.hdr->cell.load();
    const std::uint32_t st = mp::ShmStateCell::state_of(w);
    if (st == kReady) {
      const std::uint64_t nbytes =
          s.hdr->bytes.load(std::memory_order_acquire);
      const std::uint32_t want = s.hdr->crc.load(std::memory_order_acquire);
      if (nbytes > s.capacity) {  // header rot: treat as corrupt
        if (s.hdr->cell.try_transition(w, kEmpty))
          stats_->evictions.fetch_add(1, std::memory_order_relaxed);
        res.outcome = Outcome::Corrupt;
        return res;
      }
      // CRC straight over the shared pages — no private copy.  The
      // generation recheck below (and confirm() after the caller's
      // decode) closes the seqlock: if anyone republished while we were
      // summing, the word moved and we re-observe.
      if (crc32(s.payload, static_cast<std::size_t>(nbytes)) != want) {
        if (s.hdr->cell.load() != w) continue;  // republished mid-read
        // Torn publish: the word says Ready but the payload is partial.
        // Quarantine the ENTRY (evict), not the job.
        if (s.hdr->cell.try_transition(w, kEmpty))
          stats_->evictions.fetch_add(1, std::memory_order_relaxed);
        res.outcome = Outcome::Corrupt;
        return res;
      }
      if (s.hdr->cell.load() != w) continue;  // republished underneath us
      res.outcome = Outcome::Hit;
      res.data = s.payload;
      res.size = static_cast<std::size_t>(nbytes);
      res.word = w;
      stats_->hits.fetch_add(1, std::memory_order_relaxed);
      return res;
    }
    if (st == kEmpty) {
      if (s.hdr->cell.try_transition(w, kBuilding)) {
        s.hdr->builder_pid.store(static_cast<std::int32_t>(getpid()),
                                 std::memory_order_release);
        res.outcome = Outcome::Claimed;
        stats_->misses.fetch_add(1, std::memory_order_relaxed);
        return res;
      }
      continue;  // lost the claim race; re-observe
    }
    break;  // Building (someone else) or Disabled: cold, don't record
  }
  res.outcome = Outcome::Miss;
  stats_->misses.fetch_add(1, std::memory_order_relaxed);
  return res;
}

bool SetupCache::confirm(const Lookup& lk) const {
  if (lk.outcome != Outcome::Hit) return false;
  const SlotRef& s = slots_[static_cast<std::size_t>(lk.slot)];
  return s.hdr->cell.load() == lk.word;
}

bool SetupCache::publish(int slot, const std::vector<std::uint8_t>& payload,
                         bool torn_for_test) {
  TSEM_REQUIRE(slot >= 0 && slot < nslots());
  SlotRef& s = slots_[static_cast<std::size_t>(slot)];
  const std::uint64_t w = s.hdr->cell.load();
  TSEM_REQUIRE(mp::ShmStateCell::state_of(w) == kBuilding);
  if (payload.size() > s.capacity) {
    s.hdr->cell.try_transition(w, kDisabled);
    stats_->publish_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Stamp size + CRC of the FULL payload first; the torn variant then
  // copies only half of it before flipping Ready, modeling a builder
  // killed mid-copy whose header writes already landed — exactly the
  // entry the CRC check exists to reject.
  s.hdr->bytes.store(payload.size(), std::memory_order_release);
  s.hdr->crc.store(crc32(payload.data(), payload.size()),
                   std::memory_order_release);
  const std::size_t ncopy = torn_for_test ? payload.size() / 2
                                          : payload.size();
  std::memcpy(s.payload, payload.data(), ncopy);
  TSEM_REQUIRE(s.hdr->cell.try_transition(w, kReady));
  stats_->publishes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void SetupCache::evict(int slot) {
  TSEM_REQUIRE(slot >= 0 && slot < nslots());
  SlotRef& s = slots_[static_cast<std::size_t>(slot)];
  const std::uint64_t w = s.hdr->cell.load();
  if (mp::ShmStateCell::state_of(w) != kReady) return;
  if (s.hdr->cell.try_transition(w, kEmpty))
    stats_->evictions.fetch_add(1, std::memory_order_relaxed);
}

bool SetupCache::publish_pending(std::uint32_t digest) const {
  const int slot = find_slot(digest);
  if (slot < 0) return false;
  const std::uint64_t w = slots_[static_cast<std::size_t>(slot)].hdr->cell.load();
  const std::uint32_t st = mp::ShmStateCell::state_of(w);
  return st == kEmpty || st == kBuilding;
}

int SetupCache::evict_dead_builder(int pid) {
  int n = 0;
  for (SlotRef& s : slots_) {
    const std::uint64_t w = s.hdr->cell.load();
    if (mp::ShmStateCell::state_of(w) != kBuilding) continue;
    if (s.hdr->builder_pid.load(std::memory_order_acquire) != pid) continue;
    if (s.hdr->cell.try_transition(w, kEmpty)) {
      stats_->evictions.fetch_add(1, std::memory_order_relaxed);
      ++n;
    }
  }
  return n;
}

SetupCache::Stats SetupCache::stats() const {
  Stats st;
  st.hits = stats_->hits.load(std::memory_order_relaxed);
  st.misses = stats_->misses.load(std::memory_order_relaxed);
  st.publishes = stats_->publishes.load(std::memory_order_relaxed);
  st.evictions = stats_->evictions.load(std::memory_order_relaxed);
  st.publish_failures =
      stats_->publish_failures.load(std::memory_order_relaxed);
  return st;
}

}  // namespace tsem::fleet
