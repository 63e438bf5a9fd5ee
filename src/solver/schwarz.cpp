#include "solver/schwarz.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "common/check.hpp"
#include "fem/fem.hpp"
#include "io/binfile.hpp"
#include "obs/metrics.hpp"
#include "solver/setup_bundle.hpp"
#include "poly/basis1d.hpp"
#include "tensor/linalg.hpp"

namespace tsem {
namespace {

// Physical extent of element e along reference axis d: distance between
// the centroids of the two opposite faces.
double element_extent(const Mesh& m, int e, int axis) {
  const int n1 = m.n1d();
  const std::size_t off = static_cast<std::size_t>(e) * m.npe;
  double clo[3] = {0, 0, 0}, chi[3] = {0, 0, 0};
  int count = 0;
  auto visit = [&](int i, int j, int k) {
    int idx3[3] = {i, j, k};
    double* c = (idx3[axis] == 0) ? clo : chi;
    std::size_t idx = off;
    if (m.dim == 2)
      idx += static_cast<std::size_t>(j) * n1 + i;
    else
      idx += (static_cast<std::size_t>(k) * n1 + j) * n1 + i;
    c[0] += m.x[idx];
    c[1] += m.y[idx];
    if (m.dim == 3) c[2] += m.z[idx];
    if (idx3[axis] == 0) ++count;
  };
  const int kmax = m.dim == 3 ? n1 : 1;
  for (int k = 0; k < kmax; ++k)
    for (int j = 0; j < n1; ++j)
      for (int i = 0; i < n1; ++i) {
        int idx3[3] = {i, j, k};
        if (idx3[axis] == 0 || idx3[axis] == m.order) visit(i, j, k);
      }
  double d2 = 0.0;
  for (int c = 0; c < 3; ++c) {
    const double d = (chi[c] - clo[c]) / count;
    d2 += d * d;
  }
  return std::sqrt(d2);
}

// Extended 1D subdomain grid of element e: a Dirichlet ring point, `ov`
// ghost points, the ng1 Gauss points, `ov` ghost points, the high ring
// point — positions scaled by the element extent per direction.  sig
// (when non-null) accumulates the concatenated coordinates, the bitwise
// dedup signature shared by every builder below.
std::array<std::vector<double>, 3> schwarz_local_grid(
    const Mesh& m, int e, int ng1, int ov, const std::vector<double>& g,
    std::vector<double>* sig) {
  std::array<std::vector<double>, 3> pts;
  for (int d = 0; d < m.dim; ++d) {
    const double len = element_extent(m, e, d);
    auto offv = [&](int i) { return len * (g[i] + 1.0) * 0.5; };
    auto& p = pts[d];
    p.push_back(-offv(ov));  // Dirichlet ring (low)
    for (int l = ov - 1; l >= 0; --l) p.push_back(-offv(l));
    for (int i = 0; i < ng1; ++i) p.push_back(offv(i));
    for (int l = 0; l < ov; ++l) p.push_back(len + offv(l));
    p.push_back(len + offv(ov));  // Dirichlet ring (high)
    if (sig) sig->insert(sig->end(), p.begin(), p.end());
  }
  return pts;
}

}  // namespace

std::vector<FdmLocal> build_schwarz_fdm(const Mesh& m, int ng1, int overlap,
                                        std::vector<int>* fdm_of) {
  TSEM_REQUIRE(ng1 >= 1 && overlap >= 0 && overlap < ng1);
  TSEM_REQUIRE(fdm_of != nullptr);
  const auto& g = gauss_nodes(ng1);
  std::vector<FdmLocal> fdm;
  fdm_of->assign(m.nelem, 0);
  std::map<std::vector<double>, int> fdm_index;
  for (int e = 0; e < m.nelem; ++e) {
    std::vector<double> sig;
    const auto pts = schwarz_local_grid(m, e, ng1, overlap, g, &sig);
    auto [it, fresh] =
        fdm_index.emplace(std::move(sig), static_cast<int>(fdm.size()));
    if (fresh) fdm.emplace_back(pts, m.dim);
    (*fdm_of)[e] = it->second;
  }
  return fdm;
}

SchwarzLocalSolver::SchwarzLocalSolver(const Mesh& m, int ng1, int overlap)
    : dim_(m.dim), ng1_(ng1), ov_(overlap), map_(m.dim, ng1, overlap) {
  m1_ = ng1_ + 2 * ov_;
  npe_ = 1;
  for (int d = 0; d < dim_; ++d) npe_ *= static_cast<std::size_t>(ng1_);
  nle_ = 1;
  for (int d = 0; d < dim_; ++d) nle_ *= static_cast<std::size_t>(m1_);
  fdm_ = build_schwarz_fdm(m, ng1_, ov_, &fdm_of_);
}

void SchwarzLocalSolver::solve_elems(const std::int32_t* elems,
                                     const std::int32_t* blk,
                                     std::size_t nelems, const double* r,
                                     const double* ghost, std::size_t nslots,
                                     double* z, double* vout,
                                     double* work) const {
  double* rloc = work;
  double* zloc = work + nle_;
  double* lwork = work + 2 * nle_;  // 3 * nle_ for FdmLocal::solve
  for (std::size_t i = 0; i < nelems; ++i) {
    const int ge = elems[i];
    const std::size_t be = static_cast<std::size_t>(blk ? blk[i] : elems[i]);
    const std::size_t poff = be * npe_;
    const std::size_t soff = be * map_.per_layer;
    // Gather: own dofs into the interior, ghost strips on the faces, the
    // Dirichlet ring stays zero — same fill as SchwarzPrecond's
    // gather_residual, with `be` indexing the field arrays.
    std::fill(rloc, rloc + nle_, 0.0);
    if (dim_ == 2) {
      for (int j = 0; j < ng1_; ++j)
        for (int i1 = 0; i1 < ng1_; ++i1)
          rloc[(j + ov_) * m1_ + (i1 + ov_)] = r[poff + j * ng1_ + i1];
    } else {
      for (int k = 0; k < ng1_; ++k)
        for (int j = 0; j < ng1_; ++j)
          for (int i1 = 0; i1 < ng1_; ++i1)
            rloc[((k + ov_) * m1_ + (j + ov_)) * m1_ + (i1 + ov_)] =
                r[poff + (k * ng1_ + j) * ng1_ + i1];
    }
    const std::size_t spl = map_.per_layer;
    for (int l = 0; l < ov_; ++l) {
      const std::size_t k0 = static_cast<std::size_t>(l) * spl;
      const double* g = ghost + static_cast<std::size_t>(l) * nslots + soff;
      for (std::size_t k = 0; k < spl; ++k) rloc[map_.local[k0 + k]] = g[k];
    }

    fdm_[static_cast<std::size_t>(fdm_of_[static_cast<std::size_t>(ge)])]
        .solve(rloc, zloc, lwork);

    // Scatter: own part accumulated into z, ghost returns into vout.
    if (dim_ == 2) {
      for (int j = 0; j < ng1_; ++j)
        for (int i1 = 0; i1 < ng1_; ++i1)
          z[poff + j * ng1_ + i1] += zloc[(j + ov_) * m1_ + (i1 + ov_)];
    } else {
      for (int k = 0; k < ng1_; ++k)
        for (int j = 0; j < ng1_; ++j)
          for (int i1 = 0; i1 < ng1_; ++i1)
            z[poff + (k * ng1_ + j) * ng1_ + i1] +=
                zloc[((k + ov_) * m1_ + (j + ov_)) * m1_ + (i1 + ov_)];
    }
    for (int l = 0; l < ov_; ++l) {
      const std::size_t k0 = static_cast<std::size_t>(l) * spl;
      double* v = vout + static_cast<std::size_t>(l) * nslots + soff;
      for (std::size_t k = 0; k < spl; ++k) v[k] = zloc[map_.local[k0 + k]];
    }
  }
}

SchwarzPrecond::SchwarzPrecond(const PressureSystem& psys, SchwarzOptions opt)
    : psys_(&psys), opt_(opt) {
  const Mesh& m = psys.vspace().mesh();
  dim_ = m.dim;
  ng1_ = psys.ng1();
  if (opt_.local == SchwarzOptions::Local::Fdm) TSEM_REQUIRE(opt_.overlap == 1);
  TSEM_REQUIRE(opt_.overlap >= 0 && opt_.overlap < ng1_);
  m1_ = ng1_ + 2 * opt_.overlap;
  nle_ = 1;
  for (int d = 0; d < dim_; ++d) nle_ *= m1_;
  if (opt_.overlap > 0) {
    // Setup-cache replay: the exchange pattern is pure shape data, so a
    // published GhostExchange skips the anchor interpolation + geometric
    // point numbering.  Any validation failure falls back cold.
    if (opt_.setup_import != nullptr && !opt_.setup_import->ghost.empty()) {
      ByteReader r(opt_.setup_import->ghost);
      ghosts_ = GhostExchange::deserialize(r, m, ng1_, opt_.overlap);
      if (ghosts_ != nullptr && !r.exhausted()) ghosts_.reset();
    }
    if (ghosts_ == nullptr)
      ghosts_ = std::make_unique<GhostExchange>(psys, opt_.overlap);
    if (opt_.setup_record != nullptr) {
      ByteWriter w;
      ghosts_->serialize(w);
      opt_.setup_record->ghost = w.take();
    }
  }
  build_local_grids();
  if (opt_.use_coarse) build_coarse();
  if (ghosts_) {
    ghost_.resize(static_cast<std::size_t>(opt_.overlap) * ghosts_->nslots());
    vout_.resize(ghost_.size());
  }
  // Batch staging buffers sized once here so apply() never allocates.
  batch_r_.resize(static_cast<std::size_t>(m.nelem) * nle_);
  batch_z_.resize(batch_r_.size());
}

void SchwarzPrecond::build_local_grids() {
  const Mesh& m = psys_->vspace().mesh();
  const int ov = opt_.overlap;
  local_flops_ = 0.0;
  if (opt_.local == SchwarzOptions::Local::Fdm) {
    // Setup-cache replay: restore the deduplicated eigendecompositions
    // instead of re-solving the generalized eigenproblems.  A missing or
    // structurally invalid section falls back to the cold build, which
    // produces bitwise the same factorizations.
    bool restored = false;
    if (opt_.setup_import != nullptr && !opt_.setup_import->fdm.empty()) {
      restored = deserialize_schwarz_fdm(opt_.setup_import->fdm, m.nelem,
                                         &fdm_, &fdm_of_);
      if (!restored) {
        fdm_.clear();
        fdm_of_.clear();
      }
    }
    if (!restored) fdm_ = build_schwarz_fdm(m, ng1_, ov, &fdm_of_);
    if (opt_.setup_record != nullptr)
      serialize_schwarz_fdm(fdm_, fdm_of_, &opt_.setup_record->fdm);
    for (int e = 0; e < m.nelem; ++e)
      local_flops_ += fdm_[fdm_of_[e]].solve_flops();
  } else {
    const auto& g = gauss_nodes(ng1_);
    fdm_of_.assign(m.nelem, 0);
    for (int e = 0; e < m.nelem; ++e) {
      const auto pts = schwarz_local_grid(m, e, ng1_, ov, g, nullptr);
      std::vector<double> a =
          (dim_ == 2) ? p1_laplacian_2d(pts[0], pts[1])
                      : p1_laplacian_3d(pts[0], pts[1], pts[2]);
      const int n = static_cast<int>(nle_);
      TSEM_REQUIRE(cholesky_factor(a.data(), n));
      fem_.push_back(std::move(a));
      local_flops_ += 2.0 * static_cast<double>(nle_) * nle_;
    }
  }

  // Slot permutation: elements grouped by factorization (first-appearance
  // order), then cut into chunks of <= kBatch.  FemP1 groups elements in
  // mesh order (pass 2 solves per slot either way).
  slot_of_.assign(m.nelem, 0);
  elem_of_slot_.assign(m.nelem, 0);
  chunks_.clear();
  std::vector<std::vector<int>> groups;
  if (opt_.local == SchwarzOptions::Local::Fdm) {
    groups.resize(fdm_.size());
    for (int e = 0; e < m.nelem; ++e) groups[fdm_of_[e]].push_back(e);
  } else {
    groups.emplace_back(m.nelem);
    for (int e = 0; e < m.nelem; ++e) groups[0][e] = e;
  }
  int slot = 0;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::size_t i = 0; i < groups[gi].size(); ++i) {
      const int e = groups[gi][i];
      slot_of_[e] = slot;
      elem_of_slot_[slot] = e;
      if (i % kBatch == 0)
        chunks_.push_back({static_cast<int>(gi), slot, 0});
      ++chunks_.back().count;
      ++slot;
    }
  }
}

void SchwarzPrecond::build_coarse() {
  const Mesh& m = psys_->vspace().mesh();
  // Setup-cache replay: adopt the published factored tree and skip the
  // Q1 assembly, nested dissection, and X X^T factorization entirely.
  if (opt_.setup_import != nullptr && !opt_.setup_import->xxt.empty()) {
    ByteReader r(opt_.setup_import->xxt);
    auto solver = XxtSolver::deserialize(r);
    if (solver != nullptr && r.exhausted() &&
        solver->n() == static_cast<int>(m.nvert))
      coarse_ = std::make_unique<XxtCoarse>(std::move(solver));
  }
  if (coarse_ == nullptr) {
    CsrMatrix a0 = pin_dof(q1_vertex_laplacian(m), 0);
    std::vector<double> vx, vy, vz;
    vertex_coords(m, vx, vy, vz);
    int nlev = opt_.coarse_nlevels;
    if (nlev < 0) {
      nlev = 0;
      while ((m.nvert >> (nlev + 1)) >= 32 && nlev < 12) ++nlev;
    }
    coarse_ = std::make_unique<XxtCoarse>(a0, vx, vy, vz, nlev);
  }
  if (opt_.setup_record != nullptr) {
    if (const auto* xc = dynamic_cast<const XxtCoarse*>(coarse_.get())) {
      ByteWriter w;
      xc->xxt().serialize(w);
      opt_.setup_record->xxt = w.take();
    }
  }
  cb_.resize(m.nvert);
  cx_.resize(m.nvert);
  csum_.resize(m.vert_id.size());

  // Bilinear corner weights at the Gauss points (reference element).
  const auto& g = gauss_nodes(ng1_);
  const int ncorner = 1 << dim_;
  const int npe = psys_->npe();
  r0w_.assign(static_cast<std::size_t>(ncorner) * npe, 0.0);
  for (int c = 0; c < ncorner; ++c) {
    for (int q = 0; q < npe; ++q) {
      double w = 1.0;
      int rem = q;
      for (int d = 0; d < dim_; ++d) {
        const int qi = rem % ng1_;
        rem /= ng1_;
        const double gd = g[qi];
        w *= ((c >> d) & 1) ? 0.5 * (1.0 + gd) : 0.5 * (1.0 - gd);
      }
      r0w_[static_cast<std::size_t>(c) * npe + q] = w;
    }
  }
}

// Gather pass of apply(): residuals (and ghost strips) into per-element
// batch slots.
void SchwarzPrecond::gather_residual(const double* r, const double* ghost,
                                     double* batch_r) const {
  const Mesh& m = psys_->vspace().mesh();
  const int npe = psys_->npe();
  const int ov = opt_.overlap;  // > 0 exactly when ghosts_ is set
  const std::size_t nslots = ghosts_ ? ghosts_->nslots() : 0;
  const GhostSlotMap* map = ghosts_ ? &ghosts_->slot_map() : nullptr;
  const std::size_t spl = map ? map->per_layer : 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < m.nelem; ++e) {
    double* rloc = batch_r + static_cast<std::size_t>(slot_of_[e]) * nle_;
    const std::size_t poff = static_cast<std::size_t>(e) * npe;
    std::fill(rloc, rloc + nle_, 0.0);
    // Own dofs.
    if (dim_ == 2) {
      for (int j = 0; j < ng1_; ++j)
        for (int i = 0; i < ng1_; ++i)
          rloc[(j + ov) * m1_ + (i + ov)] = r[poff + j * ng1_ + i];
    } else {
      for (int k = 0; k < ng1_; ++k)
        for (int j = 0; j < ng1_; ++j)
          for (int i = 0; i < ng1_; ++i)
            rloc[((k + ov) * m1_ + (j + ov)) * m1_ + (i + ov)] =
                r[poff + (k * ng1_ + j) * ng1_ + i];
    }
    // Ghost strips.
    for (int l = 0; l < ov; ++l) {
      const std::size_t k0 = static_cast<std::size_t>(l) * spl;
      const double* g = ghost + static_cast<std::size_t>(l) * nslots +
                        static_cast<std::size_t>(e) * spl;
      for (std::size_t k = 0; k < spl; ++k) rloc[map->local[k0 + k]] = g[k];
    }
  }
}

// Scatter pass of apply(): local solutions onto the pressure dofs, which
// it overwrites, and into the ghost return staging.
void SchwarzPrecond::scatter_solution(const double* batch_z, double* vout,
                                      double* z) const {
  const Mesh& m = psys_->vspace().mesh();
  const int npe = psys_->npe();
  const int ov = opt_.overlap;
  const std::size_t nslots = ghosts_ ? ghosts_->nslots() : 0;
  const GhostSlotMap* map = ghosts_ ? &ghosts_->slot_map() : nullptr;
  const std::size_t spl = map ? map->per_layer : 0;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int e = 0; e < m.nelem; ++e) {
    const double* zloc =
        batch_z + static_cast<std::size_t>(slot_of_[e]) * nle_;
    const std::size_t poff = static_cast<std::size_t>(e) * npe;
    // Own part, which starts z: each sum begins at 0.0 (not at the local
    // value) so a -0.0 lands as +0.0 before the ghost and coarse terms
    // accumulate onto it.
    if (dim_ == 2) {
      for (int j = 0; j < ng1_; ++j)
        for (int i = 0; i < ng1_; ++i)
          z[poff + j * ng1_ + i] = 0.0 + zloc[(j + ov) * m1_ + (i + ov)];
    } else {
      for (int k = 0; k < ng1_; ++k)
        for (int j = 0; j < ng1_; ++j)
          for (int i = 0; i < ng1_; ++i)
            z[poff + (k * ng1_ + j) * ng1_ + i] =
                0.0 + zloc[((k + ov) * m1_ + (j + ov)) * m1_ + (i + ov)];
    }
    // Ghost parts routed back to the neighbors.
    for (int l = 0; l < ov; ++l) {
      const std::size_t k0 = static_cast<std::size_t>(l) * spl;
      double* v = vout + static_cast<std::size_t>(l) * nslots +
                  static_cast<std::size_t>(e) * spl;
      for (std::size_t k = 0; k < spl; ++k) v[k] = zloc[map->local[k0 + k]];
    }
  }
}

void SchwarzPrecond::apply(const double* r, double* z) const {
  const obs::ScopedTimer timer_apply("schwarz/apply");
  const Mesh& m = psys_->vspace().mesh();
  const std::size_t nloc = psys_->nloc();

  // Cheap non-finite guard (see nonfinite_applies()): pass a poisoned
  // residual through untouched instead of spending the local/coarse
  // solves on it.
  for (std::size_t i = 0; i < nloc; ++i) {
    if (!std::isfinite(r[i])) {
      ++nonfinite_applies_;
      std::copy(r, r + nloc, z);
      obs::count("schwarz/nonfinite_applies");
      return;
    }
  }

  obs::count("schwarz/applies");
  if (ghosts_) {
    const obs::ScopedTimer timer_exchange("exchange");
    ghosts_->exchange(r, ghost_.data());
  }

  // Local overlapping-subdomain solves (nested label:
  // time/schwarz/apply/local), in three passes over the batch staging
  // buffers: gather residuals into per-element slots, sweep the slots
  // chunk-by-chunk with batched FDM solves, scatter the solutions back.
  // Every pass writes disjoint slots / z entries under a deterministic
  // static schedule, so results are thread-count invariant; chunk slots
  // are contiguous, so one solve_batch call covers a whole chunk.
  obs::ScopedTimer timer_local("local");
  obs::count("schwarz/local_solves", m.nelem);
  obs::count("schwarz/batch_solves", static_cast<std::int64_t>(chunks_.size()));
  gather_residual(r, ghost_.data(), batch_r_.data());

  // Batched local solves, one chunk per iteration.
  const int nchunks = static_cast<int>(chunks_.size());
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int ci = 0; ci < nchunks; ++ci) {
    const Chunk& ch = chunks_[ci];
    const std::size_t off = static_cast<std::size_t>(ch.slot0) * nle_;
    if (opt_.local == SchwarzOptions::Local::Fdm) {
      double* lwork = lscratch_.get(3 * static_cast<std::size_t>(ch.count) * nle_);
      fdm_[ch.local].solve_batch(batch_r_.data() + off,
                                 batch_z_.data() + off, ch.count, lwork);
    } else {
      for (int s = 0; s < ch.count; ++s) {
        const int e = elem_of_slot_[ch.slot0 + s];
        double* zloc = batch_z_.data() + off + static_cast<std::size_t>(s) * nle_;
        std::copy(batch_r_.data() + off + static_cast<std::size_t>(s) * nle_,
                  batch_r_.data() + off + static_cast<std::size_t>(s + 1) * nle_,
                  zloc);
        cholesky_solve(fem_[e].data(), static_cast<int>(nle_), zloc);
      }
    }
  }

  scatter_solution(batch_z_.data(), vout_.data(), z);
  if (ghosts_) ghosts_->scatter_add(vout_.data(), z);
  timer_local.stop();

  // Coarse-grid contribution.
  // Restriction in two passes: per-(element, corner) weighted sums in
  // parallel, then the serial accumulation onto shared vertices in (e, c)
  // order.  Prolongation writes each element's own block.  Small fields
  // stay serial (kParallelMinItems).
  if (coarse_) {
    const obs::ScopedTimer timer_coarse("coarse");
    const int npe = psys_->npe();
    const int ncorner = 1 << dim_;
    const bool par = nloc > kParallelMinItems;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (par)
#endif
    for (int e = 0; e < m.nelem; ++e) {
      const std::size_t poff = static_cast<std::size_t>(e) * npe;
      for (int c = 0; c < ncorner; ++c) {
        const double* w = r0w_.data() + static_cast<std::size_t>(c) * npe;
        double s = 0.0;
        for (int q = 0; q < npe; ++q) s += w[q] * r[poff + q];
        csum_[static_cast<std::size_t>(e) * ncorner + c] = s;
      }
    }
    std::fill(cb_.begin(), cb_.end(), 0.0);
    for (std::size_t ec = 0; ec < csum_.size(); ++ec)
      cb_[m.vert_id[ec]] += csum_[ec];
    cb_[0] = 0.0;  // pinned vertex
    coarse_->solve(cb_.data(), cx_.data());
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (par)
#endif
    for (int e = 0; e < m.nelem; ++e) {
      const std::size_t poff = static_cast<std::size_t>(e) * npe;
      const std::int64_t* v =
          &m.vert_id[static_cast<std::size_t>(e) * ncorner];
      for (int c = 0; c < ncorner; ++c) {
        const double* w = r0w_.data() + static_cast<std::size_t>(c) * npe;
        const double xc = cx_[v[c]];
        for (int q = 0; q < npe; ++q) z[poff + q] += w[q] * xc;
      }
    }
  }
}

}  // namespace tsem
