// Gather-scatter utility (paper §6, ref. [27]).
//
// The principal communication kernel of the code: residual-vector
// assembly ("direct stiffness summation").  Data is stored
// element-by-element; nodal values shared by adjacent elements are
// exchanged and reduced in a single local-to-local transformation —
// there are no separate gather and scatter phases.
//
// Mirrors the paper's two-call interface:
//     handle = gs_init(global_node_numbers, n)
//     ierr   = gs_op(u, op, handle)
// as   GatherScatter gs(ids);  gs.op(u, GsOp::Add);
// with the same general commutative/associative operation set and a
// vector mode for multiple degrees of freedom per node.
//
// The numerics are executed in-process; CommProfile reports, for a given
// element-to-rank partition, the exact pairwise exchange lists a
// message-passing execution would need (used by the simulated-machine
// cost models).
#pragma once

#include <cstdint>
#include <vector>

#include "io/binfile.hpp"

namespace tsem {

enum class GsOp { Add, Mul, Min, Max };

/// Size below which the light per-item loops of the gather-scatter and
/// the Schwarz apply (gs groups, ghost slots, coarse restriction dofs)
/// stay serial: there an OpenMP region costs more than it saves, and
/// under oversubscription each region's barrier can cost milliseconds.
inline constexpr std::size_t kParallelMinItems = 4096;

class GatherScatter {
 public:
  GatherScatter() = default;
  /// ids[i] is the global number of local value i; values with equal ids
  /// are reduced together.
  GatherScatter(const std::int64_t* ids, std::size_t n);
  explicit GatherScatter(const std::vector<std::int64_t>& ids)
      : GatherScatter(ids.data(), ids.size()) {}

  /// Exchange-and-reduce in place: after the call every member of a
  /// shared-id group holds the reduction over the group.
  void op(double* u, GsOp o = GsOp::Add) const;

  /// Vector mode: u holds m consecutive values per node (AoS layout).
  void op_vec(double* u, int m, GsOp o = GsOp::Add) const;

  /// Multiplicity (number of local copies) of each local value.
  [[nodiscard]] std::vector<double> multiplicity() const;

  [[nodiscard]] std::size_t nlocal() const { return nlocal_; }
  /// Number of shared-id groups (ids with multiplicity >= 2).
  [[nodiscard]] std::size_t ngroups() const {
    return group_offset_.empty() ? 0 : group_offset_.size() - 1;
  }

  /// Sum local values into a compact global vector (size = #distinct ids,
  /// indexed by dense id order) and the reverse broadcast.  Used by the
  /// coarse-grid solvers where a globally indexed vector is required.
  void local_to_global(const double* u, double* ug) const;
  void global_to_local(const double* ug, double* u) const;
  [[nodiscard]] std::int64_t nglobal() const { return nglobal_; }
  /// Dense global index of local value i (in [0, nglobal)).
  [[nodiscard]] const std::vector<std::int64_t>& dense_id() const {
    return dense_id_;
  }

  /// Byte round-trip for the fleet setup cache: building the groups is a
  /// sort over every local node, so shape-identical workers replay the
  /// finished structure instead.  deserialize fully validates the group
  /// tables (sizes, ranges, monotone offsets) and returns false — object
  /// unchanged — on any structural defect; it never trusts the bytes.
  void serialize(ByteWriter& w) const;
  [[nodiscard]] bool deserialize(ByteReader& r);

 private:
  /// Shared kernel behind op/op_vec: reduce-and-broadcast with AoS
  /// stride m, chunked so each group is walked once per <=16 components.
  void run_groups(double* u, int m, GsOp o) const;

  std::size_t nlocal_ = 0;
  std::int64_t nglobal_ = 0;
  std::vector<std::int64_t> dense_id_;   // local -> dense global
  std::vector<std::int32_t> gather_ix_;  // members of shared groups
  std::vector<std::int32_t> group_offset_;
};

/// Message-passing profile of a gather-scatter under an element partition.
struct CommProfile {
  int nranks = 0;
  /// For each rank: number of distinct neighbor ranks it exchanges with.
  std::vector<int> neighbors;
  /// For each rank: total words sent per gs_op (sum over neighbors of the
  /// number of shared interface nodes with that neighbor).
  std::vector<std::int64_t> send_words;
  /// One pairwise exchange per ordered neighbor pair, sorted by
  /// (from, to): `words` interface values sent from -> to per gs_op (each
  /// shared id counted once per sharing-rank pair, so the list is
  /// symmetric: pair_words(a, b) == pair_words(b, a)).
  struct Edge {
    int from = 0, to = 0;
    std::int64_t words = 0;
  };
  std::vector<Edge> pairs;
  [[nodiscard]] std::int64_t max_send_words() const;
  [[nodiscard]] int max_neighbors() const;
  /// Sum of send_words over all ranks (every exchanged word, both
  /// directions of each pair).
  [[nodiscard]] std::int64_t total_words() const;
  /// Words sent from -> to per gs_op (0 when the ranks share no ids).
  [[nodiscard]] std::int64_t pair_words(int from, int to) const;
};

/// Compute the exchange profile: ids per local node (element-major),
/// npe nodes per element, elem_rank[e] in [0, nranks).
CommProfile gs_comm_profile(const std::vector<std::int64_t>& ids, int npe,
                            const std::vector<int>& elem_rank, int nranks);

}  // namespace tsem
