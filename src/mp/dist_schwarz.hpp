// Distributed ghost-volume exchange for the overlapping Schwarz
// preconditioner — the executed-tier counterpart of
// GhostExchange::exchange / scatter_add.
//
// The production exchange is per layer a pure gather-scatter over the
// face-anchor ids (ghost = gs(buf) - own), so the distributed version
// rides entirely on the dist_gs bitwise contract: slot values are packed
// from the rank-local pressure field through the same GhostSlotMap donor
// offsets (local element indices), the anchor gs runs over mp channels,
// and the subtraction is elementwise.  Executed ghost volumes are therefore
// BITWISE equal to the single-process exchange restricted to the rank's
// elements.
//
// Overlap protocol (the NekRS-motivated shape): exchange_begin publishes
// every layer's anchor messages and reduces rank-interior anchor groups;
// the caller then does interior-element compute; exchange_finish
// consumes neighbor messages and completes the boundary anchors.  The
// multi-layer sends are why mp channels support nslots > 1 — all layers
// are in flight before either side drains.
#pragma once

#include <cstddef>
#include <vector>

#include "mp/dist_gs.hpp"
#include "solver/overlap.hpp"

namespace tsem::mp {

/// Partition-wide plan for one GhostExchange under an element partition.
class DistGhost {
 public:
  DistGhost(const GhostExchange& gx, const std::vector<int>& elem_rank,
            int nranks);

  [[nodiscard]] const DistGsPlan& plan() const { return plan_; }
  [[nodiscard]] int nlayers() const { return nlayers_; }
  /// Anchor slots per layer on rank r (= local elems * 2*dim * nt).
  [[nodiscard]] std::size_t rank_nslots(int r) const {
    return plan_.ranks[static_cast<std::size_t>(r)].nlocal;
  }
  /// Pressure dofs per element (ng1^dim).
  [[nodiscard]] std::size_t npress_per_elem() const { return npe_press_; }

  struct Scratch {
    std::vector<double> own;  ///< one layer's packed donor values
    std::vector<double> buf;  ///< gs workspace (nlayers * nslots)
    GsScratch gs;
  };

  /// Publish all layers' messages from the rank-local pressure field p
  /// (length local elems * ng1^dim) and reduce interior anchors.
  bool exchange_begin(int rank, MpRank& ctx, const GsChannels& ch,
                      const double* p, Scratch& s) const;
  /// Complete boundary anchors and write ghost (nlayers * rank_nslots).
  bool exchange_finish(int rank, MpRank& ctx, const GsChannels& ch,
                       const double* p, double* ghost, Scratch& s) const;

  /// Split-phase finish (mp/overlap.hpp): drain every layer's neighbor
  /// messages and merge the boundary anchor groups into s.buf — the
  /// blocking half of exchange_finish, with NO ghost extraction.
  bool finish_boundary(int rank, MpRank& ctx, const GsChannels& ch,
                       Scratch& s) const;
  /// Extract ghost = buf - own for the listed rank-local elements' slots,
  /// every layer.  Pure local arithmetic; interior elements' slots are
  /// extractable right after exchange_begin (their anchor groups are
  /// rank-local and already reduced), boundary elements' only after
  /// finish_boundary.  Each slot's value is the same expression as
  /// exchange_finish computes, so any disjoint element split reproduces
  /// the full ghost volume bitwise.
  void extract_ghost(int rank, const std::int32_t* elems, std::size_t nelems,
                     double* ghost, const Scratch& s) const;
  /// begin + finish (no overlapped compute).
  bool exchange(int rank, MpRank& ctx, const GsChannels& ch,
                const double* p, double* ghost, Scratch& s) const;

  /// Reverse path: route each ghost-point value to the owning neighbor
  /// dof and accumulate into p (bitwise = GhostExchange::scatter_add
  /// restricted to the rank).
  bool scatter_add(int rank, MpRank& ctx, const GsChannels& ch,
                   const double* v, double* p, Scratch& s) const;

 private:
  DistGsPlan plan_;
  GhostSlotMap map_;  // copied: the plan may outlive the GhostExchange
  int nlayers_;
  std::size_t npe_press_;
};

}  // namespace tsem::mp
