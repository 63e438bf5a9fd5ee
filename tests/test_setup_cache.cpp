// Tests for the shape-keyed shared setup cache (fleet/setup_cache.hpp)
// and the serializable setup artifacts it publishes
// (solver/setup_bundle.hpp).
//
// Everything here is single-process: serialization round-trips, key
// derivation, and the slot protocol driven directly against the shm
// arena.  The end-to-end fork drills (torn publish, cold relaunch,
// bit-identity under the supervisor) live in test_fleet.cpp, which keeps
// its parent process free of OpenMP regions before fork().
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/space.hpp"
#include "fleet/setup_cache.hpp"
#include "io/binfile.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "solver/overlap.hpp"
#include "solver/schwarz.hpp"
#include "solver/setup_bundle.hpp"

namespace {

using tsem::ByteReader;
using tsem::ByteWriter;
using tsem::GatherScatter;
using tsem::GhostExchange;
using tsem::Mesh;
using tsem::SetupBundle;
using tsem::fleet::JobSpec;
using tsem::fleet::SetupCache;
using tsem::fleet::SetupKey;

Mesh test_mesh(int k = 2, int order = 4) {
  auto spec = tsem::box_spec_2d(tsem::linspace(0.0, 6.28, k),
                                tsem::linspace(0.0, 6.28, k));
  spec.periodic_x = spec.periodic_y = true;
  return tsem::build_mesh(spec, order);
}

// ---- Artifact serialization -----------------------------------------

TEST(SetupBundleIo, MeshRoundTripsBitwise) {
  const Mesh m = test_mesh();
  std::vector<std::uint8_t> bytes;
  tsem::serialize_mesh(m, &bytes);
  Mesh back;
  ASSERT_TRUE(tsem::deserialize_mesh(bytes, &back));
  EXPECT_EQ(back.dim, m.dim);
  EXPECT_EQ(back.order, m.order);
  EXPECT_EQ(back.nelem, m.nelem);
  EXPECT_EQ(back.npe, m.npe);
  EXPECT_EQ(back.nglob, m.nglob);
  EXPECT_EQ(back.nvert, m.nvert);
  EXPECT_EQ(back.node_id, m.node_id);
  EXPECT_EQ(back.vert_id, m.vert_id);
  EXPECT_EQ(back.bdry_bits, m.bdry_bits);
  // FP64 payloads must round-trip bit for bit, not just approximately —
  // the cache's digest contract depends on it.
  EXPECT_EQ(std::memcmp(back.x.data(), m.x.data(),
                        m.x.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(back.g.data(), m.g.data(),
                        m.g.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(back.drdx.data(), m.drdx.data(),
                        m.drdx.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(back.bm.data(), m.bm.data(),
                        m.bm.size() * sizeof(double)), 0);
}

TEST(SetupBundleIo, MeshRejectsTruncatedAndCorruptPayloads) {
  const Mesh m = test_mesh();
  std::vector<std::uint8_t> bytes;
  tsem::serialize_mesh(m, &bytes);
  Mesh back;
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    std::vector<std::uint8_t> t(bytes.begin(),
                                bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(tsem::deserialize_mesh(t, &back)) << "cut=" << cut;
  }
  // Out-of-range node id: structural validation must reject it.
  std::vector<std::uint8_t> bad = bytes;
  {
    Mesh tmp;
    ASSERT_TRUE(tsem::deserialize_mesh(bad, &tmp));
    tmp.node_id[0] = tmp.nglob + 7;
    tsem::serialize_mesh(tmp, &bad);
  }
  EXPECT_FALSE(tsem::deserialize_mesh(bad, &back));
  // Trailing garbage is a framing defect, not padding.
  bad = bytes;
  bad.push_back(0);
  EXPECT_FALSE(tsem::deserialize_mesh(bad, &back));
}

TEST(SetupBundleIo, GatherScatterRoundTripsAndValidates) {
  const Mesh m = test_mesh();
  const GatherScatter gs(m.node_id);
  ByteWriter w;
  gs.serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();

  GatherScatter back;
  ByteReader r(bytes);
  ASSERT_TRUE(back.deserialize(r));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.nlocal(), gs.nlocal());
  EXPECT_EQ(back.nglobal(), gs.nglobal());
  EXPECT_EQ(back.dense_id(), gs.dense_id());
  // The replayed structure must reduce identically (bitwise): same
  // groups, same member order, same accumulation order.
  std::vector<double> u(gs.nlocal()), v;
  for (std::size_t i = 0; i < u.size(); ++i)
    u[i] = 1.0 + 0.125 * static_cast<double>(i % 17);
  v = u;
  gs.op(u.data());
  back.op(v.data());
  EXPECT_EQ(std::memcmp(u.data(), v.data(), u.size() * sizeof(double)), 0);

  // Truncation and structural defects are rejected with the object
  // unchanged.
  for (const std::size_t cut : {std::size_t{5}, bytes.size() / 2}) {
    GatherScatter g2;
    ByteReader tr(bytes.data(), cut);
    EXPECT_FALSE(g2.deserialize(tr));
    EXPECT_EQ(g2.nlocal(), 0u);
  }
}

TEST(SetupBundleIo, GhostExchangeRoundTripsAndValidatesShape) {
  const Mesh m = test_mesh(3, 4);
  const int ng1 = 3, nlayers = 1;
  const GhostExchange gx(m, ng1, nlayers);
  ByteWriter w;
  gx.serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();

  ByteReader r(bytes);
  const auto back = GhostExchange::deserialize(r, m, ng1, nlayers);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back->nslots(), gx.nslots());
  EXPECT_EQ(back->tang_slots(), gx.tang_slots());

  // exchange() on the replayed pattern is bitwise the builder's.
  std::vector<double> p(static_cast<std::size_t>(m.nelem) * ng1 * ng1);
  for (std::size_t i = 0; i < p.size(); ++i)
    p[i] = std::sin(0.01 * static_cast<double>(i));
  std::vector<double> ga(static_cast<std::size_t>(nlayers) * gx.nslots());
  std::vector<double> gb(ga.size());
  gx.exchange(p.data(), ga.data());
  back->exchange(p.data(), gb.data());
  EXPECT_EQ(std::memcmp(ga.data(), gb.data(), ga.size() * sizeof(double)),
            0);

  // Parameter or mesh mismatches are rejected, not silently adopted.
  {
    ByteReader r2(bytes);
    EXPECT_EQ(GhostExchange::deserialize(r2, m, ng1 + 1, nlayers), nullptr);
  }
  {
    ByteReader r2(bytes);
    EXPECT_EQ(GhostExchange::deserialize(r2, m, ng1, nlayers + 1), nullptr);
  }
  {
    const Mesh other = test_mesh(2, 4);  // fewer elements: nslots mismatch
    ByteReader r2(bytes);
    EXPECT_EQ(GhostExchange::deserialize(r2, other, ng1, nlayers), nullptr);
  }
}

TEST(SetupBundleIo, SchwarzFdmRoundTripsBitwise) {
  const Mesh m = test_mesh(2, 4);
  std::vector<int> fdm_of;
  const auto fdm = tsem::build_schwarz_fdm(m, 3, 1, &fdm_of);
  ASSERT_FALSE(fdm.empty());
  std::vector<std::uint8_t> bytes;
  tsem::serialize_schwarz_fdm(fdm, fdm_of, &bytes);

  std::vector<tsem::FdmLocal> back;
  std::vector<int> back_of;
  ASSERT_TRUE(tsem::deserialize_schwarz_fdm(bytes, m.nelem, &back, &back_of));
  EXPECT_EQ(back_of, fdm_of);
  ASSERT_EQ(back.size(), fdm.size());
  // Serialize the replayed family again: byte-stability implies every
  // FP64 field round-tripped exactly.
  std::vector<std::uint8_t> again;
  tsem::serialize_schwarz_fdm(back, back_of, &again);
  EXPECT_EQ(again, bytes);

  // Wrong element count and out-of-range map entries are rejected.
  EXPECT_FALSE(
      tsem::deserialize_schwarz_fdm(bytes, m.nelem + 1, &back, &back_of));
}

TEST(SetupBundleIo, SpaceReplayCtorMatchesColdBuild) {
  const tsem::Space cold(test_mesh());
  ByteWriter w;
  cold.gs().serialize(w);
  const std::vector<std::uint8_t> bytes = w.take();
  GatherScatter g;
  ByteReader r(bytes);
  ASSERT_TRUE(g.deserialize(r));
  const tsem::Space warm(test_mesh(), std::move(g));
  EXPECT_EQ(warm.mult(), cold.mult());
  EXPECT_EQ(std::memcmp(warm.bm_assembled().data(),
                        cold.bm_assembled().data(),
                        cold.bm_assembled().size() * sizeof(double)), 0);
  EXPECT_EQ(warm.volume(), cold.volume());
}

TEST(SetupBundleIo, BundleFramingRoundTripsAndRejectsDefects) {
  SetupBundle b;
  b.mesh = {1, 2, 3};
  b.fdm = {};  // empty sections are preserved as empty
  b.xxt = {9};
  b.dealias = std::vector<std::uint8_t>(300, 0x5a);
  b.ghost = {4, 5};
  b.gs = {6};
  const std::vector<std::uint8_t> enc = tsem::encode_setup_bundle(b);

  SetupBundle back;
  ASSERT_TRUE(tsem::decode_setup_bundle(enc, &back));
  EXPECT_EQ(back.mesh, b.mesh);
  EXPECT_TRUE(back.fdm.empty());
  EXPECT_EQ(back.xxt, b.xxt);
  EXPECT_EQ(back.dealias, b.dealias);
  EXPECT_EQ(back.ghost, b.ghost);
  EXPECT_EQ(back.gs, b.gs);

  // Truncations anywhere must fail cleanly (the zero-copy reader sees
  // whatever a torn publish left behind).
  for (std::size_t cut = 0; cut < enc.size(); cut += 7)
    EXPECT_FALSE(tsem::decode_setup_bundle(enc.data(), cut, &back));
  // Bad magic / bumped version / trailing garbage.
  std::vector<std::uint8_t> bad = enc;
  bad[0] ^= 0xff;
  EXPECT_FALSE(tsem::decode_setup_bundle(bad, &back));
  bad = enc;
  bad[4] ^= 0x01;  // v3 -> v2, the format that still carried an mxm table
  EXPECT_FALSE(tsem::decode_setup_bundle(bad, &back));
  bad = enc;
  bad.push_back(0);
  EXPECT_FALSE(tsem::decode_setup_bundle(bad, &back));
}

// ---- Key derivation -------------------------------------------------

TEST(SetupKeys, DistinctShapesGetDistinctKeys) {
  JobSpec a;
  a.mesh_k = 2;
  a.order = 4;
  JobSpec b = a;

  EXPECT_EQ(tsem::fleet::setup_key_for(a).digest,
            tsem::fleet::setup_key_for(b).digest);
  // Physics parameters must NOT split the key...
  b.reynolds = 99.0;
  b.dt = 0.002;
  b.steps = 1000;
  b.priority = 3;
  EXPECT_EQ(tsem::fleet::setup_key_for(a).digest,
            tsem::fleet::setup_key_for(b).digest);
  // ...but every setup input must.
  b = a;
  b.mesh_k = 3;
  EXPECT_NE(tsem::fleet::setup_key_for(a).text,
            tsem::fleet::setup_key_for(b).text);
  b = a;
  b.order = 5;
  EXPECT_NE(tsem::fleet::setup_key_for(a).text,
            tsem::fleet::setup_key_for(b).text);
  b = a;
  b.dealias = !a.dealias;
  EXPECT_NE(tsem::fleet::setup_key_for(a).text,
            tsem::fleet::setup_key_for(b).text);

  // distinct_setup_keys dedups by digest in first-appearance order.
  JobSpec c = a;
  c.order = 6;
  const auto keys = tsem::fleet::distinct_setup_keys({a, b, a, c, b});
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0].digest, tsem::fleet::setup_key_for(a).digest);
  EXPECT_EQ(keys[1].digest, tsem::fleet::setup_key_for(b).digest);
  EXPECT_EQ(keys[2].digest, tsem::fleet::setup_key_for(c).digest);
}

// ---- Slot protocol (single process against the shm arena) -----------

std::vector<JobSpec> two_shape_jobs() {
  JobSpec a;
  a.mesh_k = 2;
  a.order = 4;
  JobSpec b = a;
  b.order = 3;
  return {a, b, a, b};
}

TEST(SetupCacheProtocol, ClaimPublishHitLifecycle) {
  const auto jobs = two_shape_jobs();
  SetupCache cache(jobs);
  cache.seal();
  ASSERT_EQ(cache.nslots(), 2);  // one per distinct key

  const SetupKey key = tsem::fleet::setup_key_for(jobs[0]);
  EXPECT_TRUE(cache.publish_pending(key.digest));

  // First reader claims; a concurrent reader of the same key misses
  // (Building is not worth waiting on from inside a worker).
  SetupCache::Lookup claim = cache.lookup(key);
  ASSERT_EQ(claim.outcome, SetupCache::Outcome::Claimed);
  EXPECT_EQ(cache.lookup(key).outcome, SetupCache::Outcome::Miss);
  EXPECT_TRUE(cache.publish_pending(key.digest));

  const std::vector<std::uint8_t> payload(1024, 0xab);
  ASSERT_TRUE(cache.publish(claim.slot, payload));
  EXPECT_FALSE(cache.publish_pending(key.digest));

  SetupCache::Lookup hit = cache.lookup(key);
  ASSERT_EQ(hit.outcome, SetupCache::Outcome::Hit);
  ASSERT_EQ(hit.size, payload.size());
  EXPECT_EQ(std::memcmp(hit.data, payload.data(), payload.size()), 0);
  EXPECT_TRUE(cache.confirm(hit));

  // The other key's slot is untouched.
  const SetupKey other = tsem::fleet::setup_key_for(jobs[1]);
  EXPECT_TRUE(cache.publish_pending(other.digest));
  EXPECT_EQ(cache.lookup(other).outcome, SetupCache::Outcome::Claimed);

  // Eviction invalidates outstanding Hits (generation moved) and makes
  // the key claimable again.
  cache.evict(hit.slot);
  EXPECT_FALSE(cache.confirm(hit));
  EXPECT_EQ(cache.lookup(key).outcome, SetupCache::Outcome::Claimed);

  const SetupCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.publishes, 1u);
  EXPECT_EQ(st.evictions, 1u);
}

TEST(SetupCacheProtocol, TornPublishIsRejectedByCrcAndEvicted) {
  const auto jobs = two_shape_jobs();
  SetupCache cache(jobs);
  cache.seal();
  const SetupKey key = tsem::fleet::setup_key_for(jobs[0]);
  SetupCache::Lookup claim = cache.lookup(key);
  ASSERT_EQ(claim.outcome, SetupCache::Outcome::Claimed);

  // Non-constant payload, so a half-copied prefix cannot alias the full
  // payload's checksum.
  std::vector<std::uint8_t> payload(4096);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 31 + 7);
  ASSERT_TRUE(cache.publish(claim.slot, payload, /*torn_for_test=*/true));

  // The word says Ready, the CRC says torn: the ENTRY is quarantined
  // (evicted), and the key becomes claimable for a clean rebuild.
  EXPECT_EQ(cache.lookup(key).outcome, SetupCache::Outcome::Corrupt);
  EXPECT_GE(cache.stats().evictions, 1u);
  SetupCache::Lookup re = cache.lookup(key);
  ASSERT_EQ(re.outcome, SetupCache::Outcome::Claimed);
  ASSERT_TRUE(cache.publish(re.slot, payload));
  EXPECT_EQ(cache.lookup(key).outcome, SetupCache::Outcome::Hit);
}

TEST(SetupCacheProtocol, OversizedPublishDisablesEntry) {
  const auto jobs = two_shape_jobs();
  SetupCache cache(jobs, /*entry_kb_override=*/1);  // 1 KiB slots
  cache.seal();
  const SetupKey key = tsem::fleet::setup_key_for(jobs[0]);
  SetupCache::Lookup claim = cache.lookup(key);
  ASSERT_EQ(claim.outcome, SetupCache::Outcome::Claimed);
  const std::vector<std::uint8_t> big(8192, 1);
  EXPECT_FALSE(cache.publish(claim.slot, big));
  // Disabled: no longer pending, and every later lookup goes cold
  // without claiming (Miss), so the fleet cannot wedge on the key.
  EXPECT_FALSE(cache.publish_pending(key.digest));
  EXPECT_EQ(cache.lookup(key).outcome, SetupCache::Outcome::Miss);
  EXPECT_EQ(cache.stats().publish_failures, 1u);
}

TEST(SetupCacheProtocol, DeadBuilderSlotsAreReaped) {
  const auto jobs = two_shape_jobs();
  SetupCache cache(jobs);
  cache.seal();
  const SetupKey key = tsem::fleet::setup_key_for(jobs[0]);
  ASSERT_EQ(cache.lookup(key).outcome, SetupCache::Outcome::Claimed);

  // Wrong pid: nothing reaped.  Right pid (in-process, our own): the
  // Building slot returns to Empty and the key is claimable again.
  EXPECT_EQ(cache.evict_dead_builder(999999), 0);
  EXPECT_EQ(cache.evict_dead_builder(static_cast<int>(::getpid())), 1);
  EXPECT_EQ(cache.lookup(key).outcome, SetupCache::Outcome::Claimed);
}

}  // namespace
