// Tests for the VTK writer and multi-species transport.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/binfile.hpp"
#include "io/vtk.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "ns/navier_stokes.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- Crash-safe atomic writes ---------------------------------------

TEST(AtomicWrite, WritesAndReplacesWithoutLeavingTemp) {
  const std::string path = "test_io_atomic.bin";
  std::string err;
  const std::string v1 = "first contents";
  ASSERT_TRUE(tsem::write_file_atomic(path, v1.data(), v1.size(), &err))
      << err;
  EXPECT_EQ(slurp(path), v1);
  // The temp file must not survive a successful write.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  const std::string v2 = "replacement, different length";
  ASSERT_TRUE(tsem::write_file_atomic(path, v2.data(), v2.size(), &err));
  EXPECT_EQ(slurp(path), v2);
  std::remove(path.c_str());
}

TEST(AtomicWrite, TornTempNeverClobbersTheRealFile) {
  // Model a writer killed mid-write: the real file exists, and a partial
  // ".tmp" is left behind.  The real file must be untouched, and the next
  // atomic write must simply overwrite the stale temp.
  const std::string path = "test_io_atomic_torn.bin";
  std::string err;
  const std::string good = "durable checkpoint bytes";
  ASSERT_TRUE(tsem::write_file_atomic(path, good.data(), good.size(), &err));
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "TSEMCKPT torn mid-wr";  // prefix of a would-be new version
  }
  EXPECT_EQ(slurp(path), good);  // old version fully intact

  const std::string next = "next full version";
  ASSERT_TRUE(tsem::write_file_atomic(path, next.data(), next.size(), &err));
  EXPECT_EQ(slurp(path), next);
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicWrite, FailsCleanlyWhenDirectoryMissing) {
  std::string err;
  EXPECT_FALSE(tsem::write_file_atomic("no_such_dir_xyz/file.bin", "x", 1,
                                       &err));
  EXPECT_FALSE(err.empty());
}

TEST(BinFile, ContainerRoundTripsAndRejectsTornPrefixes) {
  const char magic[8] = {'T', 'S', 'E', 'M', 'T', 'E', 'S', 'T'};
  tsem::BinFileWriter w(magic, 3);
  tsem::ByteWriter payload;
  payload.put<std::uint64_t>(0xdeadbeefcafe1234ull);
  payload.put_vec({1.0, 2.5, -3.0});
  w.add_section(7, payload.take());
  const std::string path = "test_io_container.bin";
  std::string err;
  ASSERT_TRUE(w.write(path, &err)) << err;

  std::map<std::uint32_t, std::vector<std::uint8_t>> sections;
  ASSERT_TRUE(tsem::read_bin_file(path, magic, 3, &sections, &err)) << err;
  ASSERT_EQ(sections.count(7u), 1u);
  tsem::ByteReader rd(sections[7]);
  std::uint64_t tag = 0;
  std::vector<double> vec;
  ASSERT_TRUE(rd.get(&tag));
  EXPECT_EQ(tag, 0xdeadbeefcafe1234ull);
  ASSERT_TRUE(rd.get_vec(&vec));
  EXPECT_EQ(vec, (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_TRUE(rd.exhausted());

  // Every truncation of the container must be rejected with a message —
  // this is the validation a torn non-atomic write would have relied on.
  const std::string whole = slurp(path);
  for (std::size_t len = 0; len < whole.size(); len += 3) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(whole.data(), static_cast<std::streamsize>(len));
    f.close();
    err.clear();
    EXPECT_FALSE(tsem::read_bin_file(path, magic, 3, &sections, &err))
        << "truncation to " << len << " bytes accepted";
    EXPECT_FALSE(err.empty());
  }
  std::remove(path.c_str());
}

TEST(BinFile, EmptyPodVectorsRoundTrip) {
  // Zero-length payloads between non-empty ones: the reader must leave
  // empty vectors empty (whatever they held before) and stay aligned on
  // the fields that follow.
  tsem::ByteWriter w;
  w.put_pod_vec(std::vector<double>{});
  w.put_pod_vec(std::vector<std::int32_t>{});
  w.put<std::uint32_t>(0x5eedu);
  w.put_bytes({});
  w.put_pod_vec(std::vector<float>{1.5f, -2.0f});
  w.put_pod_vec(std::vector<std::int64_t>{});
  const auto bytes = w.take();

  tsem::ByteReader rd(bytes);
  std::vector<double> d{9.0};
  std::vector<std::int32_t> i32{7};
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> raw{1, 2};
  std::vector<float> f;
  std::vector<std::int64_t> i64;
  ASSERT_TRUE(rd.get_pod_vec(&d));
  EXPECT_TRUE(d.empty());
  ASSERT_TRUE(rd.get_pod_vec(&i32));
  EXPECT_TRUE(i32.empty());
  ASSERT_TRUE(rd.get(&tag));
  EXPECT_EQ(tag, 0x5eedu);
  ASSERT_TRUE(rd.get_bytes(&raw));
  EXPECT_TRUE(raw.empty());
  ASSERT_TRUE(rd.get_pod_vec(&f));
  EXPECT_EQ(f, (std::vector<float>{1.5f, -2.0f}));
  ASSERT_TRUE(rd.get_pod_vec(&i64));
  EXPECT_TRUE(i64.empty());
  EXPECT_TRUE(rd.exhausted());
  // The reader never runs past the end, not even for one more empty read.
  EXPECT_FALSE(rd.get_pod_vec(&i64));
}

TEST(Vtk, WritesParsableUnstructuredGrid2D) {
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 1, 2),
                                tsem::linspace(0, 1, 2));
  const auto m = tsem::build_mesh(spec, 3);
  std::vector<double> f(m.nlocal());
  for (std::size_t i = 0; i < f.size(); ++i) f[i] = m.x[i] + 2 * m.y[i];
  const std::string path = "test_io_2d.vtk";
  ASSERT_TRUE(tsem::write_vtk(m, {{"field", f.data()}}, path));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t npoints = 0;
  long ncells = 0;
  bool has_field = false;
  while (std::getline(in, line)) {
    if (line.rfind("POINTS", 0) == 0)
      npoints = std::stoul(line.substr(7));
    else if (line.rfind("CELLS ", 0) == 0)
      ncells = std::stol(line.substr(6));
    else if (line.find("SCALARS field") != std::string::npos)
      has_field = true;
  }
  EXPECT_EQ(npoints, m.nlocal());
  EXPECT_EQ(ncells, 4L * 3 * 3);  // K * N^2 sub-quads
  EXPECT_TRUE(has_field);
  std::remove(path.c_str());
}

TEST(Vtk, Writes3DHexCells) {
  auto spec = tsem::box_spec_3d(tsem::linspace(0, 1, 1),
                                tsem::linspace(0, 1, 1),
                                tsem::linspace(0, 1, 1));
  const auto m = tsem::build_mesh(spec, 2);
  const std::string path = "test_io_3d.vtk";
  std::vector<double> f(m.nlocal(), 1.0);
  ASSERT_TRUE(tsem::write_vtk(m, {{"one", f.data()}}, path));
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("CELLS 8 72"), std::string::npos);  // 2^3 hexes, 9 ints
  // Cell type 12 = VTK_HEXAHEDRON.
  EXPECT_NE(all.find("CELL_TYPES 8"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MultiSpecies, IndependentDiffusionRates) {
  // Two species with different diffusivities on a periodic box, zero
  // velocity: each decays as its own heat equation.
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 2 * M_PI, 4),
                                tsem::linspace(0, 2 * M_PI, 4));
  spec.periodic_x = spec.periodic_y = true;
  tsem::Space s(tsem::build_mesh(spec, 7));
  const auto& m = s.mesh();
  tsem::NsOptions opt;
  opt.dt = 0.01;
  opt.viscosity = 0.1;
  tsem::NavierStokes ns(s, 0u, opt);
  const int a = ns.add_scalar(0u, 0.05);
  const int b = ns.add_scalar(0u, 0.2);
  EXPECT_EQ(ns.nscalars(), 2);
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    const double mode = std::sin(m.x[i]) * std::sin(m.y[i]);
    ns.scalar(a)[i] = mode;
    ns.scalar(b)[i] = mode;
  }
  for (int n = 0; n < 15; ++n) ns.step();
  const double da = std::exp(-2.0 * 0.05 * ns.time());
  const double db = std::exp(-2.0 * 0.2 * ns.time());
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    const double mode = std::sin(m.x[i]) * std::sin(m.y[i]);
    EXPECT_NEAR(ns.scalar(a)[i], da * mode, 3e-5);
    EXPECT_NEAR(ns.scalar(b)[i], db * mode, 3e-5);
  }
}

TEST(MultiSpecies, AdvectedTogetherWithFlow) {
  // Passive tracers in a rigid-rotation-like Taylor-Green field stay
  // bounded and conserve their integral (periodic, no sources).
  auto spec = tsem::box_spec_2d(tsem::linspace(0, 2 * M_PI, 4),
                                tsem::linspace(0, 2 * M_PI, 4));
  spec.periodic_x = spec.periodic_y = true;
  tsem::Space s(tsem::build_mesh(spec, 7));
  const auto& m = s.mesh();
  tsem::NsOptions opt;
  opt.dt = 0.02;
  opt.viscosity = 0.05;
  tsem::NavierStokes ns(s, 0u, opt);
  ns.add_scalar(0u, 0.01);
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    ns.u(0)[i] = std::sin(m.x[i]) * std::cos(m.y[i]);
    ns.u(1)[i] = -std::cos(m.x[i]) * std::sin(m.y[i]);
    ns.scalar()[i] = 1.0 + 0.5 * std::cos(m.x[i]);
  }
  const double mass0 = s.integrate(ns.scalar().data());
  for (int n = 0; n < 10; ++n) ns.step();
  const double mass1 = s.integrate(ns.scalar().data());
  EXPECT_NEAR(mass1, mass0, 1e-3 * std::fabs(mass0));
  for (double v : ns.scalar()) {
    EXPECT_GT(v, 0.3);
    EXPECT_LT(v, 1.7);
  }
}

}  // namespace
