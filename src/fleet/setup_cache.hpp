// Shape-keyed shared setup cache for the ensemble fleet (DESIGN.md
// "Setup cache").
//
// Expensive per-job setup — mesh construction, the Schwarz FDM
// eigendecompositions, the factored XXT coarse tree, the dealiasing
// interpolation operators — depends only on the job's SHAPE (mesh spec x
// order x runtime ISA), not on its physics parameters.  A Reynolds
// sweep therefore rebuilds identical artifacts in every worker.  The
// supervisor instead owns a MAP_SHARED arena (src/mp/shm.hpp) with one
// fixed-capacity slot per distinct shape key, allocated and sealed
// BEFORE the first fork so every worker inherits the same pages: the
// first worker for a key builds cold and publishes the encoded
// SetupBundle under a generation-stamped seqlock word; later workers
// attach, verify the CRC-32 in place, decode zero-copy out of the shared
// pages, and skip straight to time-stepping.
//
// Trust model: a Ready entry is NEVER trusted.  The CRC (computed over
// the shared bytes) catches torn publishes (a worker killed mid-copy
// that already flipped the word — injected by the TornPublish fault);
// the generation recheck (confirm()) catches eviction/republication
// underneath a reader; the bounds-checked bundle decoders catch
// structural rot and make the zero-copy read crash-free even against a
// concurrent rewrite.  Any
// rejection evicts the ENTRY (generation bump to Empty) and the worker
// exits kExitCacheFailed so the supervisor can relaunch the JOB cold
// without burning its retry ladder — a poisoned cache must cost wall
// time, never a quarantine.
//
// The bitwise contract: a cache-hit job's state digest equals its
// cold-start digest bit for bit (asserted by the fleet cache drill).
// Serialization round-trips FP64 payloads exactly, and the runtime ISA in
// the key pins every worker of a key to the same static kernel choices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/spec.hpp"
#include "mp/shm.hpp"

namespace tsem::fleet {

/// Canonical setup shape of a job.  digest is a CRC-32 of the canonical
/// text, which names every input the cached artifacts depend on: the
/// mesh spec (fleet jobs are periodic [0,2pi]^2 boxes, so mesh_k pins
/// it), polynomial order, dealiasing, and the runtime vector ISA (which
/// selects the mxm kernels).
struct SetupKey {
  std::string text;
  std::uint32_t digest = 0;
};

[[nodiscard]] SetupKey setup_key_for(const JobSpec& job);

/// Distinct keys of an expanded job list, in first-appearance order.
[[nodiscard]] std::vector<SetupKey> distinct_setup_keys(
    const std::vector<JobSpec>& jobs);

/// Analytic upper bound on one key's encoded-bundle size (bytes); the
/// slot capacity.  Deliberately generous (~1.5x a worst-case accounting
/// of every section) — an oversized publish disables the entry and the
/// job just runs cold, so the bound is a performance knob, not a
/// correctness one.
[[nodiscard]] std::size_t estimate_entry_bytes(const JobSpec& job);

class SetupCache {
 public:
  enum class Outcome {
    Hit,      ///< payload copied out, seqlock-consistent, CRC verified
    Claimed,  ///< slot transitioned Empty->Building; caller must publish
              ///< (or die and be reaped by evict_dead_builder)
    Miss,     ///< entry Building/Disabled/contended: build cold, don't
              ///< record
    Corrupt,  ///< Ready entry failed CRC: entry evicted; caller should
              ///< _exit(kExitCacheFailed) so the job relaunches cold
  };
  struct Lookup {
    Outcome outcome = Outcome::Miss;
    int slot = -1;  ///< valid whenever the key was found
    /// On Hit: a zero-copy view into the shared arena, CRC-verified in
    /// place.  Decode from it directly (the bundle decoders are bounds-
    /// checked, so even a concurrent rewrite cannot crash the reader),
    /// then call confirm() — a generation recheck — before trusting
    /// anything derived from the bytes.
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    std::uint64_t word = 0;  ///< seqlock snapshot confirm() revalidates
  };

  /// Parent-side, pre-fork: one slot per job-derived distinct key.
  /// entry_kb_override > 0 fixes every slot's capacity (KiB) instead of
  /// the analytic estimate.
  SetupCache(const std::vector<JobSpec>& jobs, int entry_kb_override = 0);

  /// Seal the arena: call after construction, before the first fork.
  void seal() { arena_.seal(); }

  [[nodiscard]] int nslots() const { return static_cast<int>(slots_.size()); }
  [[nodiscard]] std::size_t bytes_mapped() const {
    return arena_.bytes_mapped();
  }

  // ---- worker side (post-fork; also usable single-process in tests) ----

  /// Resolve the key and run the read/claim protocol (counts hit/miss).
  [[nodiscard]] Lookup lookup(const SetupKey& key);

  /// Seqlock validation of a Hit: true iff the slot's generation word is
  /// unchanged since lookup(), i.e. nobody evicted or republished the
  /// entry while the caller was decoding from the shared view.
  [[nodiscard]] bool confirm(const Lookup& lk) const;

  /// Publish an encoded bundle into a slot this process Claimed.  False
  /// (entry Disabled) when the payload exceeds capacity.  torn_for_test
  /// writes only half the payload while stamping the full size and full
  /// CRC before flipping Ready — the TornPublish fault's torn entry,
  /// which the next reader must reject by checksum.
  bool publish(int slot, const std::vector<std::uint8_t>& payload,
               bool torn_for_test = false);

  /// Evict a Ready entry (post-CRC structural decode failure).
  void evict(int slot);

  // ---- supervisor side ----

  /// Reap Building slots whose builder was pid (worker died mid-build or
  /// mid-publish).  Returns the number of slots evicted back to Empty.
  int evict_dead_builder(int pid);

  /// True while the key's entry could still be published by a builder in
  /// flight (slot Empty or Building).  Ready, Disabled, and unknown keys
  /// return false — waiting cannot improve those.  Dispatch hint only
  /// (cache-aware hold-back in the supervisor's launch scan); workers
  /// still run the full lookup() protocol and tolerate every race.
  [[nodiscard]] bool publish_pending(std::uint32_t digest) const;

  /// Shared counters (atomics in the arena, so worker-side events are
  /// visible to the supervisor's report).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t publishes = 0;
    std::uint64_t evictions = 0;
    std::uint64_t publish_failures = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct SharedSlot;   // arena-resident header (defined in the .cpp)
  struct SharedStats;  // arena-resident counters
  struct SlotRef {
    std::uint32_t digest;
    SharedSlot* hdr;
    std::uint8_t* payload;
    std::size_t capacity;
  };

  [[nodiscard]] int find_slot(std::uint32_t digest) const;

  mp::ShmArena arena_;
  std::vector<SlotRef> slots_;  // private; inherited read-only via fork
  SharedStats* stats_ = nullptr;
};

}  // namespace tsem::fleet
