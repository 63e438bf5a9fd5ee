#include "gs/gather_scatter.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace tsem {

GatherScatter::GatherScatter(const std::int64_t* ids, std::size_t n) {
  nlocal_ = n;
  // Sort local indices by id to find groups and assign dense ids.
  std::vector<std::int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::int32_t a, std::int32_t b) {
    return ids[a] < ids[b] || (ids[a] == ids[b] && a < b);
  });
  dense_id_.resize(n);
  group_offset_.push_back(0);
  std::size_t i = 0;
  std::int64_t dense = -1;
  while (i < n) {
    std::size_t j = i;
    while (j < n && ids[order[j]] == ids[order[i]]) ++j;
    ++dense;
    for (std::size_t k = i; k < j; ++k) dense_id_[order[k]] = dense;
    if (j - i >= 2) {
      for (std::size_t k = i; k < j; ++k) gather_ix_.push_back(order[k]);
      group_offset_.push_back(static_cast<std::int32_t>(gather_ix_.size()));
    }
    i = j;
  }
  nglobal_ = dense + 1;
}

namespace {

// Reduce-and-broadcast over the shared-id groups with AoS stride m.  One
// walk over each group covers a chunk of up to Chunk components, so the
// gather index list is traversed ceil(m / Chunk) times instead of m
// times.  The reduction and the chunk width are template arguments so
// the member loops carry no per-value GsOp switch and, for the scalar op
// (Chunk = 1), no runtime component loop; either one makes the scalar op
// several times slower than its memory traffic.
template <int Chunk, typename Reduce>
void reduce_groups(const std::int32_t* group_offset,
                   const std::int32_t* gather_ix, std::size_t ng, double* u,
                   int m, double init, Reduce reduce) {
  constexpr int kGsChunk = Chunk;
  const std::size_t sm = static_cast<std::size_t>(m);
  for (int c0 = 0; c0 < m; c0 += kGsChunk) {
    const int nc = kGsChunk == 1 ? 1 : std::min(kGsChunk, m - c0);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (ng > kParallelMinItems)
#endif
    for (std::size_t g = 0; g < ng; ++g) {
      const std::int32_t b = group_offset[g];
      const std::int32_t e = group_offset[g + 1];
      double acc[kGsChunk];
      for (int c = 0; c < nc; ++c) acc[c] = init;
      for (std::int32_t k = b; k < e; ++k) {
        const double* row =
            u + static_cast<std::size_t>(gather_ix[k]) * sm + c0;
        for (int c = 0; c < nc; ++c) acc[c] = reduce(acc[c], row[c]);
      }
      for (std::int32_t k = b; k < e; ++k) {
        double* row = u + static_cast<std::size_t>(gather_ix[k]) * sm + c0;
        for (int c = 0; c < nc; ++c) row[c] = acc[c];
      }
    }
  }
}

}  // namespace

// The operation is dispatched once per call, outside the group walk.
void GatherScatter::run_groups(double* u, int m, GsOp o) const {
  const std::size_t ng = ngroups();
  const std::int32_t* off = group_offset_.data();
  const std::int32_t* ix = gather_ix_.data();
  auto walk = [&](double init, auto reduce) {
    if (m == 1)
      reduce_groups<1>(off, ix, ng, u, m, init, reduce);
    else
      reduce_groups<16>(off, ix, ng, u, m, init, reduce);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (o) {
    case GsOp::Add: walk(0.0, [](auto a, auto b) { return a + b; }); break;
    case GsOp::Mul: walk(1.0, [](auto a, auto b) { return a * b; }); break;
    case GsOp::Min:
      walk(kInf, [](auto a, auto b) { return a < b ? a : b; });
      break;
    case GsOp::Max:
      walk(-kInf, [](auto a, auto b) { return a > b ? a : b; });
      break;
  }
  if constexpr (obs::kEnabled) {
    obs::count("gs/ops");
    obs::count("gs/words",
               static_cast<std::int64_t>(gather_ix_.size()) * m);
  }
}

void GatherScatter::op(double* u, GsOp o) const { run_groups(u, 1, o); }

void GatherScatter::op_vec(double* u, int m, GsOp o) const {
  run_groups(u, m, o);
}

void GatherScatter::serialize(ByteWriter& w) const {
  w.put<std::uint64_t>(nlocal_);
  w.put<std::int64_t>(nglobal_);
  w.put_pod_vec(dense_id_);
  w.put_pod_vec(gather_ix_);
  w.put_pod_vec(group_offset_);
}

bool GatherScatter::deserialize(ByteReader& r) {
  std::uint64_t nlocal = 0;
  std::int64_t nglobal = 0;
  std::vector<std::int64_t> dense;
  std::vector<std::int32_t> gix, goff;
  if (!r.get(&nlocal) || !r.get(&nglobal) || !r.get_pod_vec(&dense) ||
      !r.get_pod_vec(&gix) || !r.get_pod_vec(&goff))
    return false;
  if (nglobal < 0 || dense.size() != nlocal) return false;
  for (const std::int64_t id : dense)
    if (id < 0 || id >= nglobal) return false;
  // group_offset_ is either empty (no shared groups) or a monotone
  // offset table starting at 0 and ending at gather_ix_.size().
  if (goff.empty()) {
    if (!gix.empty()) return false;
  } else {
    if (goff.front() != 0 ||
        goff.back() != static_cast<std::int32_t>(gix.size()))
      return false;
    for (std::size_t g = 1; g < goff.size(); ++g)
      if (goff[g] < goff[g - 1]) return false;
  }
  for (const std::int32_t ix : gix)
    if (ix < 0 || static_cast<std::uint64_t>(ix) >= nlocal) return false;
  nlocal_ = static_cast<std::size_t>(nlocal);
  nglobal_ = nglobal;
  dense_id_ = std::move(dense);
  gather_ix_ = std::move(gix);
  group_offset_ = std::move(goff);
  return true;
}

std::vector<double> GatherScatter::multiplicity() const {
  std::vector<double> mult(nlocal_, 1.0);
  for (std::size_t g = 0; g < ngroups(); ++g) {
    const std::int32_t b = group_offset_[g];
    const std::int32_t e = group_offset_[g + 1];
    for (std::int32_t k = b; k < e; ++k)
      mult[gather_ix_[k]] = static_cast<double>(e - b);
  }
  return mult;
}

void GatherScatter::local_to_global(const double* u, double* ug) const {
  std::fill(ug, ug + nglobal_, 0.0);
  for (std::size_t i = 0; i < nlocal_; ++i) ug[dense_id_[i]] += u[i];
}

void GatherScatter::global_to_local(const double* ug, double* u) const {
  for (std::size_t i = 0; i < nlocal_; ++i) u[i] = ug[dense_id_[i]];
}

std::int64_t CommProfile::max_send_words() const {
  std::int64_t m = 0;
  for (auto v : send_words) m = std::max(m, v);
  return m;
}

int CommProfile::max_neighbors() const {
  int m = 0;
  for (auto v : neighbors) m = std::max(m, v);
  return m;
}

std::int64_t CommProfile::total_words() const {
  std::int64_t t = 0;
  for (auto v : send_words) t += v;
  return t;
}

std::int64_t CommProfile::pair_words(int from, int to) const {
  const auto it = std::lower_bound(
      pairs.begin(), pairs.end(), std::make_pair(from, to),
      [](const Edge& e, const std::pair<int, int>& k) {
        return e.from < k.first || (e.from == k.first && e.to < k.second);
      });
  if (it == pairs.end() || it->from != from || it->to != to) return 0;
  return it->words;
}

CommProfile gs_comm_profile(const std::vector<std::int64_t>& ids, int npe,
                            const std::vector<int>& elem_rank, int nranks) {
  TSEM_REQUIRE(npe > 0);
  TSEM_REQUIRE(ids.size() % static_cast<std::size_t>(npe) == 0);
  const std::size_t nelem = ids.size() / npe;
  TSEM_REQUIRE(elem_rank.size() == nelem);

  // Flat (id, rank) pairs, sorted and deduplicated, replace the old
  // map<id, set<rank>>: one allocation and an O(n log n) sort instead of
  // a node allocation per distinct (id, rank) — the profile is built on
  // Table-4-sized meshes where that map dominated setup time.
  std::vector<std::pair<std::int64_t, int>> pairs;
  pairs.reserve(ids.size());
  for (std::size_t e = 0; e < nelem; ++e) {
    const int r = elem_rank[e];
    TSEM_REQUIRE(r >= 0 && r < nranks);
    for (int n = 0; n < npe; ++n) pairs.emplace_back(ids[e * npe + n], r);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  CommProfile prof;
  prof.nranks = nranks;
  prof.send_words.assign(nranks, 0);
  // Sweep runs of equal id.  A run of k >= 2 distinct ranks means a
  // pairwise exchange: each sharing rank sends this id's value to every
  // other sharing rank (the stand-alone gs utility's pairwise mode).
  // nbr_pairs keeps one entry per (id, ordered rank pair) so a sort +
  // run-length pass below yields the pairwise exchange list.
  std::vector<std::pair<int, int>> nbr_pairs;
  for (std::size_t i = 0; i < pairs.size();) {
    std::size_t j = i;
    while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
    const std::int64_t k = static_cast<std::int64_t>(j - i);
    if (k >= 2) {
      for (std::size_t a = i; a < j; ++a) {
        prof.send_words[pairs[a].second] += k - 1;
        for (std::size_t b = i; b < j; ++b)
          if (b != a) nbr_pairs.emplace_back(pairs[a].second, pairs[b].second);
      }
    }
    i = j;
  }
  std::sort(nbr_pairs.begin(), nbr_pairs.end());
  prof.neighbors.assign(nranks, 0);
  for (std::size_t i = 0; i < nbr_pairs.size();) {
    std::size_t j = i;
    while (j < nbr_pairs.size() && nbr_pairs[j] == nbr_pairs[i]) ++j;
    prof.pairs.push_back({nbr_pairs[i].first, nbr_pairs[i].second,
                          static_cast<std::int64_t>(j - i)});
    ++prof.neighbors[nbr_pairs[i].first];
    i = j;
  }
  return prof;
}

}  // namespace tsem
