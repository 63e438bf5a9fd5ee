#include "mp/dist_schwarz.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tsem::mp {

DistGhost::DistGhost(const GhostExchange& gx,
                     const std::vector<int>& elem_rank, int nranks)
    : map_(gx.slot_map()), nlayers_(gx.nlayers()) {
  npe_press_ = 1;
  for (int d = 0; d < gx.dim(); ++d)
    npe_press_ *= static_cast<std::size_t>(gx.ng1());
  // The anchor-id gather-scatter is the whole exchange; its dense ids
  // preserve the sharing structure, and slots are element-major with
  // 2*dim*nt per element, so the generic dist-gs builder applies as-is.
  plan_ = build_dist_gs(gx.gather_scatter().dense_id(),
                        static_cast<int>(map_.per_layer), elem_rank, nranks);
}

bool DistGhost::exchange_begin(int rank, MpRank& ctx, const GsChannels& ch,
                               const double* p, Scratch& s) const {
  const DistGsRank& rk = plan_.ranks[static_cast<std::size_t>(rank)];
  const std::size_t ns = rk.nlocal;
  s.own.resize(static_cast<std::size_t>(nlayers_) * ns);
  s.buf.resize(static_cast<std::size_t>(nlayers_) * ns);
  for (int l = 0; l < nlayers_; ++l) {
    double* own = s.own.data() + static_cast<std::size_t>(l) * ns;
    double* buf = s.buf.data() + static_cast<std::size_t>(l) * ns;
    const std::size_t spl = map_.per_layer;
    const std::int32_t* donor =
        map_.donor.data() + static_cast<std::size_t>(l) * spl;
    for (std::size_t s0 = 0, e = 0; s0 < ns; s0 += spl, ++e) {
      const double* pe = p + e * npe_press_;
      for (std::size_t k = 0; k < spl; ++k) own[s0 + k] = pe[donor[k]];
    }
    std::copy(own, own + ns, buf);
    // All layers' messages go out before any boundary wait; the per-nbr
    // channels are rings with >= nlayers slots, so nothing blocks here.
    if (!dist_gs_begin(rk, ctx, ch, buf, GsOp::Add, s.gs)) return false;
  }
  return true;
}

bool DistGhost::exchange_finish(int rank, MpRank& ctx, const GsChannels& ch,
                                const double* p, double* ghost,
                                Scratch& s) const {
  (void)p;
  const DistGsRank& rk = plan_.ranks[static_cast<std::size_t>(rank)];
  const std::size_t ns = rk.nlocal;
  for (int l = 0; l < nlayers_; ++l) {
    double* own = s.own.data() + static_cast<std::size_t>(l) * ns;
    double* buf = s.buf.data() + static_cast<std::size_t>(l) * ns;
    if (!dist_gs_finish(rk, ctx, ch, buf, GsOp::Add, s.gs)) return false;
    double* g = ghost + static_cast<std::size_t>(l) * ns;
    for (std::size_t slot = 0; slot < ns; ++slot)
      g[slot] = buf[slot] - own[slot];
  }
  return true;
}

bool DistGhost::finish_boundary(int rank, MpRank& ctx, const GsChannels& ch,
                                Scratch& s) const {
  const DistGsRank& rk = plan_.ranks[static_cast<std::size_t>(rank)];
  const std::size_t ns = rk.nlocal;
  for (int l = 0; l < nlayers_; ++l) {
    double* buf = s.buf.data() + static_cast<std::size_t>(l) * ns;
    if (!dist_gs_finish(rk, ctx, ch, buf, GsOp::Add, s.gs)) return false;
  }
  return true;
}

void DistGhost::extract_ghost(int rank, const std::int32_t* elems,
                              std::size_t nelems, double* ghost,
                              const Scratch& s) const {
  const DistGsRank& rk = plan_.ranks[static_cast<std::size_t>(rank)];
  const std::size_t ns = rk.nlocal;
  const std::size_t spe = map_.per_layer;
  for (std::size_t i = 0; i < nelems; ++i) {
    const std::size_t s0 = static_cast<std::size_t>(elems[i]) * spe;
    for (int l = 0; l < nlayers_; ++l) {
      const double* own = s.own.data() + static_cast<std::size_t>(l) * ns;
      const double* buf = s.buf.data() + static_cast<std::size_t>(l) * ns;
      double* g = ghost + static_cast<std::size_t>(l) * ns;
      for (std::size_t slot = s0; slot < s0 + spe; ++slot)
        g[slot] = buf[slot] - own[slot];
    }
  }
}

bool DistGhost::exchange(int rank, MpRank& ctx, const GsChannels& ch,
                         const double* p, double* ghost, Scratch& s) const {
  return exchange_begin(rank, ctx, ch, p, s) &&
         exchange_finish(rank, ctx, ch, p, ghost, s);
}

bool DistGhost::scatter_add(int rank, MpRank& ctx, const GsChannels& ch,
                            const double* v, double* p, Scratch& s) const {
  const DistGsRank& rk = plan_.ranks[static_cast<std::size_t>(rank)];
  const std::size_t ns = rk.nlocal;
  s.own.resize(ns);
  s.buf.resize(ns);
  for (int l = 0; l < nlayers_; ++l) {
    const double* g = v + static_cast<std::size_t>(l) * ns;
    for (std::size_t slot = 0; slot < ns; ++slot) {
      s.own[slot] = g[slot];
      s.buf[slot] = g[slot];
    }
    // One full op per layer (send + drain) — the reverse path has no
    // compute to hide, so no multi-layer in-flight window is needed.
    if (!dist_gs_op(rk, ctx, ch, s.buf.data(), GsOp::Add, s.gs))
      return false;
    const std::size_t spl = map_.per_layer;
    const std::int32_t* donor =
        map_.donor.data() + static_cast<std::size_t>(l) * spl;
    for (std::size_t s0 = 0, e = 0; s0 < ns; s0 += spl, ++e) {
      double* pe = p + e * npe_press_;
      for (std::size_t k = 0; k < spl; ++k)
        pe[donor[k]] += s.buf[s0 + k] - s.own[s0 + k];
    }
  }
  return true;
}

}  // namespace tsem::mp
