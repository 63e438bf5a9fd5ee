#include "solver/setup_bundle.hpp"

#include "io/binfile.hpp"

namespace tsem {
namespace {

constexpr std::uint32_t kBundleMagic = 0x42555354u;  // "TSUB"
// v2: appended the GhostExchange and Space-connectivity sections.
// v3: dropped the mxm kernel-table section (dispatch is static).
constexpr std::uint32_t kBundleVersion = 3;

}  // namespace

void serialize_mesh(const Mesh& m, std::vector<std::uint8_t>* out) {
  ByteWriter w;
  w.put<std::int32_t>(m.dim);
  w.put<std::int32_t>(m.order);
  w.put<std::int32_t>(m.nelem);
  w.put<std::int32_t>(m.npe);
  w.put<std::int64_t>(m.nglob);
  w.put<std::int64_t>(m.nvert);
  w.put_vec(m.x);
  w.put_vec(m.y);
  w.put_vec(m.z);
  w.put_pod_vec(m.node_id);
  w.put_pod_vec(m.vert_id);
  w.put_vec(m.jac);
  w.put_vec(m.bm);
  w.put_vec(m.g);
  w.put_vec(m.drdx);
  w.put_pod_vec(m.bdry_bits);
  *out = w.take();
}

bool deserialize_mesh(const std::vector<std::uint8_t>& in, Mesh* out) {
  ByteReader r(in);
  Mesh m;
  std::int32_t dim = 0, order = 0, nelem = 0, npe = 0;
  if (!r.get(&dim) || !r.get(&order) || !r.get(&nelem) || !r.get(&npe) ||
      !r.get(&m.nglob) || !r.get(&m.nvert))
    return false;
  if ((dim != 2 && dim != 3) || order < 1 || nelem < 1 || npe < 1)
    return false;
  m.dim = dim;
  m.order = order;
  m.nelem = nelem;
  m.npe = npe;
  if (!r.get_vec(&m.x) || !r.get_vec(&m.y) || !r.get_vec(&m.z) ||
      !r.get_pod_vec(&m.node_id) || !r.get_pod_vec(&m.vert_id) ||
      !r.get_vec(&m.jac) || !r.get_vec(&m.bm) || !r.get_vec(&m.g) ||
      !r.get_vec(&m.drdx) || !r.get_pod_vec(&m.bdry_bits) || !r.exhausted())
    return false;
  const std::size_t nl = static_cast<std::size_t>(nelem) * npe;
  if (m.x.size() != nl || m.y.size() != nl ||
      m.z.size() != (dim == 3 ? nl : 0) || m.node_id.size() != nl ||
      m.vert_id.size() != (static_cast<std::size_t>(nelem) << dim) ||
      m.jac.size() != nl || m.bm.size() != nl ||
      m.g.size() != static_cast<std::size_t>(m.ngeo()) * nl ||
      m.drdx.size() != static_cast<std::size_t>(dim) * dim * nl ||
      m.bdry_bits.size() != nl)
    return false;
  for (const std::int64_t id : m.node_id)
    if (id < 0 || id >= m.nglob) return false;
  for (const std::int64_t id : m.vert_id)
    if (id < 0 || id >= m.nvert) return false;
  *out = std::move(m);
  return true;
}

void serialize_schwarz_fdm(const std::vector<FdmLocal>& fdm,
                           const std::vector<int>& fdm_of,
                           std::vector<std::uint8_t>* out) {
  ByteWriter w;
  w.put<std::uint64_t>(fdm.size());
  for (const FdmLocal& f : fdm) f.serialize(w);
  w.put_pod_vec(fdm_of);
  *out = w.take();
}

bool deserialize_schwarz_fdm(const std::vector<std::uint8_t>& in, int nelem,
                             std::vector<FdmLocal>* fdm,
                             std::vector<int>* fdm_of) {
  ByteReader r(in);
  std::uint64_t nuniq = 0;
  if (!r.get(&nuniq)) return false;
  if (nuniq == 0 || nuniq > static_cast<std::uint64_t>(nelem)) return false;
  std::vector<FdmLocal> uf(static_cast<std::size_t>(nuniq));
  for (auto& f : uf)
    if (!f.deserialize(r)) return false;
  std::vector<int> of;
  if (!r.get_pod_vec(&of) || !r.exhausted()) return false;
  if (of.size() != static_cast<std::size_t>(nelem)) return false;
  for (const int e : of)
    if (e < 0 || e >= static_cast<int>(nuniq)) return false;
  *fdm = std::move(uf);
  *fdm_of = std::move(of);
  return true;
}

std::vector<std::uint8_t> encode_setup_bundle(const SetupBundle& b) {
  ByteWriter w;
  w.put<std::uint32_t>(kBundleMagic);
  w.put<std::uint32_t>(kBundleVersion);
  w.put_bytes(b.mesh);
  w.put_bytes(b.fdm);
  w.put_bytes(b.xxt);
  w.put_bytes(b.dealias);
  w.put_bytes(b.ghost);
  w.put_bytes(b.gs);
  return w.take();
}

bool decode_setup_bundle(const std::vector<std::uint8_t>& bytes,
                         SetupBundle* out) {
  return decode_setup_bundle(bytes.data(), bytes.size(), out);
}

bool decode_setup_bundle(const std::uint8_t* data, std::size_t n,
                         SetupBundle* out) {
  ByteReader r(data, n);
  std::uint32_t magic = 0, version = 0;
  if (!r.get(&magic) || !r.get(&version) || magic != kBundleMagic ||
      version != kBundleVersion)
    return false;
  SetupBundle b;
  if (!r.get_bytes(&b.mesh) || !r.get_bytes(&b.fdm) || !r.get_bytes(&b.xxt) ||
      !r.get_bytes(&b.dealias) || !r.get_bytes(&b.ghost) ||
      !r.get_bytes(&b.gs) || !r.exhausted())
    return false;
  *out = std::move(b);
  return true;
}

}  // namespace tsem
