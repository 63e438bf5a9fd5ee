#include "solver/overlap.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "mesh/point_numberer.hpp"
#include "poly/basis1d.hpp"
#include "tensor/mxm.hpp"
#include "tensor/tensor_apply.hpp"

namespace tsem {

GhostSlotMap::GhostSlotMap(int dim, int ng1, int nlayers) {
  TSEM_REQUIRE(dim == 2 || dim == 3);
  TSEM_REQUIRE(ng1 >= 1 && nlayers >= 0);
  const int nt = dim == 2 ? ng1 : ng1 * ng1;
  const int m1 = ng1 + 2 * nlayers;
  per_layer = static_cast<std::size_t>(2 * dim) * nt;
  donor.reserve(static_cast<std::size_t>(nlayers) * per_layer);
  local.reserve(donor.capacity());
  for (int l = 0; l < nlayers; ++l)
    for (int f = 0; f < 2 * dim; ++f) {
      const int axis = f / 2, side = f % 2;
      for (int t = 0; t < nt; ++t) {
        // Normal axis: layer l inside the face (donor) and the l-th ghost
        // point outside it (local).  Tangential axes ascending, lower
        // axis fastest, shifted past the low ghost layers in the local
        // grid.
        int di[3] = {0, 0, 0}, li[3] = {0, 0, 0};
        di[axis] = side == 0 ? l : ng1 - 1 - l;
        li[axis] = side == 0 ? nlayers - 1 - l : nlayers + ng1 + l;
        int rem = t;
        for (int d = 0; d < dim; ++d) {
          if (d == axis) continue;
          di[d] = rem % ng1;
          li[d] = nlayers + rem % ng1;
          rem /= ng1;
        }
        donor.push_back((di[2] * ng1 + di[1]) * ng1 + di[0]);
        local.push_back((li[2] * m1 + li[1]) * m1 + li[0]);
      }
    }
}

GhostExchange::GhostExchange(const PressureSystem& psys, int nlayers)
    : GhostExchange(psys.vspace().mesh(), psys.ng1(), nlayers) {}

GhostExchange::GhostExchange(const Mesh& m, int ng1, int nlayers)
    : dim_(m.dim), ng1_(ng1), nlayers_(nlayers) {
  TSEM_REQUIRE(nlayers_ >= 1 && nlayers_ <= ng1_);
  const int n1 = m.n1d();
  init_layout(m.nelem);

  const auto& ig = gll_to_gauss(m.order, ng1_);  // ng1 x n1
  const double diag = m.bbox_diag();
  PointNumberer num(1e-5 * diag, 1e-8 * diag);
  std::vector<std::int64_t> ids(nslots_);

  // Workspaces for face-coordinate interpolation.
  std::vector<double> face_vals(static_cast<std::size_t>(n1) * n1);
  std::vector<double> anchor(static_cast<std::size_t>(nt_) * 3, 0.0);
  std::vector<double> work(static_cast<std::size_t>(ng1_) * n1 + nt_);

  const double* coords[3] = {m.x.data(), m.y.data(),
                             dim_ == 3 ? m.z.data() : nullptr};
  for (int e = 0; e < m.nelem; ++e) {
    const std::size_t off = static_cast<std::size_t>(e) * m.npe;
    for (int f = 0; f < 2 * dim_; ++f) {
      const int axis = f / 2;
      const int side = f % 2;
      for (int c = 0; c < dim_; ++c) {
        // Extract the face restriction of coordinate c on the GLL grid
        // (tangential axes ascending, lower axis fastest), then
        // interpolate to the Gauss tangential grid.
        if (dim_ == 2) {
          const int tax = 1 - axis;
          for (int q = 0; q < n1; ++q) {
            int ij[2];
            ij[axis] = side == 0 ? 0 : m.order;
            ij[tax] = q;
            face_vals[q] = coords[c][off + ij[1] * n1 + ij[0]];
          }
          // anchor_t = sum_q ig[t][q] face_vals[q]
          for (int t = 0; t < ng1_; ++t) {
            double s = 0.0;
            for (int q = 0; q < n1; ++q) s += ig[t * n1 + q] * face_vals[q];
            anchor[t * 3 + c] = s;
          }
        } else {
          int taxes[2], ti = 0;
          for (int d = 0; d < 3; ++d)
            if (d != axis) taxes[ti++] = d;
          for (int q2 = 0; q2 < n1; ++q2)
            for (int q1 = 0; q1 < n1; ++q1) {
              int ijk[3];
              ijk[axis] = side == 0 ? 0 : m.order;
              ijk[taxes[0]] = q1;
              ijk[taxes[1]] = q2;
              face_vals[q2 * n1 + q1] =
                  coords[c][off + (static_cast<std::size_t>(ijk[2]) * n1 +
                                   ijk[1]) * n1 + ijk[0]];
            }
          std::vector<double> out(static_cast<std::size_t>(ng1_) * ng1_);
          tensor2_apply(ig.data(), ng1_, n1, ig.data(), ng1_, n1,
                        face_vals.data(), out.data(), work.data());
          for (int t = 0; t < nt_; ++t) anchor[t * 3 + c] = out[t];
        }
      }
      const std::size_t base =
          (static_cast<std::size_t>(e) * 2 * dim_ + f) * nt_;
      for (int t = 0; t < nt_; ++t)
        ids[base + t] =
            num.id_of(anchor[t * 3 + 0], anchor[t * 3 + 1], anchor[t * 3 + 2]);
    }
  }
  gs_ = GatherScatter(ids);
}

void GhostExchange::init_layout(int nelem) {
  nt_ = 1;
  npe_ = static_cast<std::size_t>(ng1_);
  for (int d = 1; d < dim_; ++d) {
    nt_ *= ng1_;
    npe_ *= static_cast<std::size_t>(ng1_);
  }
  nelem_ = nelem;
  nslots_ = static_cast<std::size_t>(nelem) * 2 * dim_ * nt_;
  map_ = GhostSlotMap(dim_, ng1_, nlayers_);
  buf_.resize(nslots_);
}

CommProfile GhostExchange::comm_profile(const std::vector<int>& elem_rank,
                                        int nranks) const {
  return gs_comm_profile(gs_.dense_id(), 2 * dim_ * nt_, elem_rank, nranks);
}

void GhostExchange::serialize(ByteWriter& w) const {
  w.put<std::int32_t>(dim_);
  w.put<std::int32_t>(ng1_);
  w.put<std::int32_t>(nlayers_);
  gs_.serialize(w);
}

std::unique_ptr<GhostExchange> GhostExchange::deserialize(ByteReader& r,
                                                          const Mesh& m,
                                                          int ng1,
                                                          int nlayers) {
  std::int32_t dim = 0, sng1 = 0, snl = 0;
  if (!r.get(&dim) || !r.get(&sng1) || !r.get(&snl)) return nullptr;
  if (dim != m.dim || sng1 != ng1 || snl != nlayers) return nullptr;
  if (nlayers < 1 || nlayers > ng1) return nullptr;
  auto gx = std::unique_ptr<GhostExchange>(new GhostExchange());
  gx->dim_ = dim;
  gx->ng1_ = ng1;
  gx->nlayers_ = nlayers;
  gx->init_layout(m.nelem);
  if (!gx->gs_.deserialize(r)) return nullptr;
  // The gather-scatter must cover exactly one anchor id per slot; a
  // shape mismatch (different mesh than the one serialized) shows up
  // here even though the ids themselves carry no coordinates.
  if (gx->gs_.nlocal() != gx->nslots_) return nullptr;
  return gx;
}

// Element-major passes: each element packs from / accumulates into its
// own pressure block only, and visits its slots in map order, so any
// static split of the elements over threads yields the serial result bit
// for bit.  The gather-scatter reduction in between is unchanged.  Below
// kParallelMinItems slots the passes run serially.
void GhostExchange::exchange(const double* p, double* ghost) const {
  double* buf = buf_.data();
  const std::size_t spl = map_.per_layer;
  for (int l = 0; l < nlayers_; ++l) {
    const std::int32_t* donor =
        map_.donor.data() + static_cast<std::size_t>(l) * spl;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (nslots_ > kParallelMinItems)
#endif
    for (int e = 0; e < nelem_; ++e) {
      const double* pe = p + static_cast<std::size_t>(e) * npe_;
      double* b = buf + static_cast<std::size_t>(e) * spl;
      for (std::size_t k = 0; k < spl; ++k) b[k] = pe[donor[k]];
    }
    gs_.op(buf);
    double* g = ghost + static_cast<std::size_t>(l) * nslots_;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (nslots_ > kParallelMinItems)
#endif
    for (int e = 0; e < nelem_; ++e) {
      const double* pe = p + static_cast<std::size_t>(e) * npe_;
      const std::size_t s0 = static_cast<std::size_t>(e) * spl;
      for (std::size_t k = 0; k < spl; ++k)
        g[s0 + k] = buf[s0 + k] - pe[donor[k]];
    }
  }
}

void GhostExchange::scatter_add(const double* v, double* p) const {
  double* buf = buf_.data();
  const std::size_t spl = map_.per_layer;
  for (int l = 0; l < nlayers_; ++l) {
    const std::int32_t* donor =
        map_.donor.data() + static_cast<std::size_t>(l) * spl;
    const double* g = v + static_cast<std::size_t>(l) * nslots_;
    std::copy(g, g + nslots_, buf);
    gs_.op(buf);
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (nslots_ > kParallelMinItems)
#endif
    for (int e = 0; e < nelem_; ++e) {
      double* pe = p + static_cast<std::size_t>(e) * npe_;
      const std::size_t s0 = static_cast<std::size_t>(e) * spl;
      for (std::size_t k = 0; k < spl; ++k)
        pe[donor[k]] += buf[s0 + k] - g[s0 + k];
    }
  }
}

}  // namespace tsem
