// Ghost-layer exchange for the overlapping Schwarz preconditioner
// (paper §5, Fig 5 right).
//
// Each element's local subdomain extends `nlayers` Gauss points into its
// face neighbors.  The exchange is organized around geometric "anchors":
// the intersection points of each element's tangential Gauss lines with
// its faces.  For conforming meshes both sharing elements compute the
// same anchor coordinates, so matching anchors (and a layer index) pairs
// up donor and receiver slots without any explicit neighbor/orientation
// bookkeeping — the machinery reduces to the same gather-scatter kernel
// used for residual assembly.
//
// Slot layout: slot(e, f, t) = (e * 2*dim + f) * nt + t, with f = 2*axis
// + side and t the tangential multi-index (x-fastest among the non-normal
// axes); layers are stored as consecutive nslots-sized blocks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/pressure.hpp"
#include "gs/gather_scatter.hpp"

namespace tsem {

/// Per-element ghost-slot map (DESIGN.md "Schwarz apply threading"):
/// the slot -> grid index math of the overlap exchange, computed once
/// from (dim, ng1, nlayers) so every loop that moves ghost values reads
/// two offsets instead of redoing axis/tangential div-mods per slot.
///
/// Element slot k = (l * 2*dim + f) * nt + t covers layer l, face f and
/// tangential index t (the slot layout above, layer-major):
///   donor[k]  offset of the dof that layer l of face f exchanges, in the
///             element's ng1^dim pressure block;
///   local[k]  offset of the matching ghost point in the element's
///             (ng1 + 2*nlayers)^dim extended subdomain grid.
/// Both are element-relative, so the same map serves the global field,
/// a rank-local field and the batched subdomain staging alike.
struct GhostSlotMap {
  GhostSlotMap() = default;
  GhostSlotMap(int dim, int ng1, int nlayers);

  /// Slots per element per layer (2*dim * ng1^(dim-1)).
  std::size_t per_layer = 0;
  std::vector<std::int32_t> donor;
  std::vector<std::int32_t> local;
};

class GhostExchange {
 public:
  GhostExchange(const PressureSystem& psys, int nlayers);
  /// Mesh-level form: the exchange pattern depends only on the mesh
  /// geometry and the Gauss grid size, so simulated-machine profiling can
  /// build it without assembling a PressureSystem.
  GhostExchange(const Mesh& m, int ng1, int nlayers);

  [[nodiscard]] int nlayers() const { return nlayers_; }
  /// Slots per layer (= nelem * 2*dim * ng1^(dim-1)).
  [[nodiscard]] std::size_t nslots() const { return nslots_; }
  // Geometry of the slot layout; a rank-local executor
  // (mp/dist_schwarz.hpp) reads the same slot map with local element
  // indices.
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] int ng1() const { return ng1_; }
  /// Tangential slots per face (ng1^(dim-1)).
  [[nodiscard]] int tang_slots() const { return nt_; }
  /// Donor/ghost-point offsets of every slot of an element.
  [[nodiscard]] const GhostSlotMap& slot_map() const { return map_; }

  /// Fill ghost[l*nslots + slot] with the neighbor's layer-l value
  /// adjacent to each face (0 beyond physical boundaries), reading from
  /// the pressure field p.  The pack and extract passes are OpenMP
  /// element loops; results are bitwise thread-count invariant.
  void exchange(const double* p, double* ghost) const;

  /// Reverse path: v[l*nslots + slot] holds this element's local-solve
  /// value at its ghost points; route each to the neighbor that owns the
  /// underlying dof and accumulate into p.
  void scatter_add(const double* v, double* p) const;

  /// The underlying anchor-id gather-scatter (one op per layer per
  /// exchange/scatter_add pass).
  [[nodiscard]] const GatherScatter& gather_scatter() const { return gs_; }

  /// Message-passing profile of one ghost-layer gs_op under an element
  /// partition (slots are element-major, 2*dim*nt per element).
  [[nodiscard]] CommProfile comm_profile(const std::vector<int>& elem_rank,
                                         int nranks) const;

  /// Byte round-trip for the fleet setup cache.  The exchange pattern is
  /// pure shape data (anchor matching over the mesh geometry), so a
  /// shape-identical worker replays the finished GatherScatter instead of
  /// redoing the anchor interpolation + point numbering.  deserialize
  /// validates the stored layout against the mesh and the caller's
  /// (ng1, nlayers) and returns nullptr on any mismatch or structural
  /// defect — it never trusts the bytes.
  void serialize(ByteWriter& w) const;
  [[nodiscard]] static std::unique_ptr<GhostExchange> deserialize(
      ByteReader& r, const Mesh& m, int ng1, int nlayers);

 private:
  GhostExchange() = default;
  /// Set the slot geometry and size the staging buffers (both ctors).
  void init_layout(int nelem);

  int dim_, ng1_, nlayers_;
  int nt_;  // tangential slots per face
  int nelem_;
  std::size_t npe_;  // pressure dofs per element (ng1^dim)
  std::size_t nslots_;
  GhostSlotMap map_;
  GatherScatter gs_;
  // One layer's gather-scatter staging.
  mutable std::vector<double> buf_;
};

}  // namespace tsem
