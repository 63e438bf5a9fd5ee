// Serializable bundle of expensive setup artifacts (DESIGN.md "Setup
// cache").
//
// A fleet worker's setup cost is dominated by artifacts that are pure
// functions of (mesh spec, order, ISA): the mesh
// geometry itself (GLL coordinates, C0 numbering, geometric factors),
// the Schwarz FDM generalized eigendecompositions, the factored XXT
// coarse tree, the dealiasing interpolation matrices, the Schwarz ghost
// exchange plan and the C0 connectivity.  The SetupBundle collects each
// as an independent byte section so the first worker for a shape can
// RECORD them while building, and later workers can REPLAY them and skip
// straight to time-stepping — with bitwise-identical solver state, since
// every section round-trips its FP64 payload exactly.
//
// The bundle itself carries no checksum: integrity of a published bundle
// is the setup cache's job (one CRC-32 over the encoded payload,
// fleet/setup_cache.hpp).  Decoders here only defend structure — a
// section that decodes but is inconsistent with the target mesh is
// rejected and the caller rebuilds cold.
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/mesh.hpp"
#include "solver/fdm.hpp"

namespace tsem {

struct SetupBundle {
  std::vector<std::uint8_t> mesh;     ///< serialize_mesh payload
  std::vector<std::uint8_t> fdm;      ///< unique FdmLocals + fdm_of map
  std::vector<std::uint8_t> xxt;      ///< XxtSolver::serialize payload
  std::vector<std::uint8_t> dealias;  ///< DealiasedConvection payload
  std::vector<std::uint8_t> ghost;    ///< GhostExchange::serialize payload
  std::vector<std::uint8_t> gs;       ///< Space connectivity (GatherScatter)

  [[nodiscard]] bool empty() const {
    return mesh.empty() && fdm.empty() && xxt.empty() && dealias.empty() &&
           ghost.empty() && gs.empty();
  }
};

/// Mesh is pure geometry data (no derived pointers), so it round-trips
/// bitwise.  Caching it is what lets a cache hit skip build_mesh — the
/// single largest setup term for the fleet's periodic boxes.
void serialize_mesh(const Mesh& m, std::vector<std::uint8_t>* out);
/// Returns false (out unspecified) on truncated or size-inconsistent
/// payloads.
bool deserialize_mesh(const std::vector<std::uint8_t>& in, Mesh* out);

/// The Schwarz FDM family: deduplicated factorizations + the
/// element->factorization map (matches build_schwarz_fdm's outputs).
void serialize_schwarz_fdm(const std::vector<FdmLocal>& fdm,
                           const std::vector<int>& fdm_of,
                           std::vector<std::uint8_t>* out);
/// nelem is the expected fdm_of length; every map entry is range-checked.
bool deserialize_schwarz_fdm(const std::vector<std::uint8_t>& in, int nelem,
                             std::vector<FdmLocal>* fdm,
                             std::vector<int>* fdm_of);

/// Frame the six sections into one payload (what the setup cache
/// publishes under its CRC) and back.  decode returns false on any
/// framing defect; empty sections are preserved as empty.  The raw-span
/// overload decodes straight out of the shared cache arena — the one
/// copy of each section lands directly in the bundle's vectors.
std::vector<std::uint8_t> encode_setup_bundle(const SetupBundle& b);
bool decode_setup_bundle(const std::uint8_t* data, std::size_t n,
                         SetupBundle* out);
bool decode_setup_bundle(const std::vector<std::uint8_t>& bytes,
                         SetupBundle* out);

}  // namespace tsem
