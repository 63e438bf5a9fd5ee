// Bench smoke tests: run the scaling benches at reduced scale, parse the
// emitted terasem-bench-1 JSON with the in-repo reader, and assert the
// schema plus the paper's shape invariants — the measured tier is
// present and its schedule quantities equal an independent ClusterSim
// recomputation on the same mesh, the dual/single speedup lands in the
// paper's band, and the extrapolated tier scales near-linearly from 512
// to 2048 nodes.
//
// TSEM_FIG6_BIN / TSEM_TABLE4_BIN are injected by tests/CMakeLists.txt as
// $<TARGET_FILE:...> of the bench targets.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "obs/json.hpp"
#include "sim/cluster.hpp"

namespace {

using tsem::obs::Json;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Json run_bench(const std::string& bin, const std::string& args,
               const std::string& report_name) {
  const std::string dir = ::testing::TempDir();
  const std::string cmd = "TSEM_BENCH_DIR=\"" + dir + "\" \"" + bin + "\" " +
                          args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << cmd;
  const std::string text = slurp(dir + "/BENCH_" + report_name + ".json");
  EXPECT_FALSE(text.empty()) << "no report written by " << cmd;
  Json doc;
  std::string err;
  EXPECT_TRUE(Json::parse(text, &doc, &err)) << err;
  return doc;
}

void check_schema(const Json& doc, const std::string& name) {
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->as_string(), "terasem-bench-1");
  ASSERT_NE(doc.find("name"), nullptr);
  EXPECT_EQ(doc.find("name")->as_string(), name);
  ASSERT_NE(doc.find("meta"), nullptr);
  ASSERT_NE(doc.find("cases"), nullptr);
  ASSERT_TRUE(doc.find("cases")->is_array());
  ASSERT_GT(doc.find("cases")->size(), 0u);
}

const Json* find_case(const Json& doc, const std::string& name) {
  for (const auto& c : doc.find("cases")->items())
    if (c.find("name") && c.find("name")->as_string() == name) return &c;
  return nullptr;
}

double field(const Json& c, const std::string& key) {
  const Json* v = c.find(key);
  EXPECT_NE(v, nullptr) << "missing field " << key;
  return v ? v->as_double() : 0.0;
}

TEST(BenchSmoke, Fig6TiersAndMeasuredScheduleFidelity) {
  const Json doc = run_bench(TSEM_FIG6_BIN, "--pmax 8 --sizes 63 --pexec 2",
                             "fig6_coarse");
  check_schema(doc, "fig6_coarse");

  // ---- executed tier: real forked ranks, bitwise-checked tree walk ----
  ASSERT_NE(doc.find("meta")->find("pexec"), nullptr);
  EXPECT_EQ(doc.find("meta")->find("pexec")->as_int(), 2);
  {
    const Json* c = find_case(doc, "n3969/P2/executed");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->find("tier")->as_string(), "executed");
    ASSERT_NE(c->find("bitwise_vs_reference"), nullptr);
    EXPECT_TRUE(c->find("bitwise_vs_reference")->as_bool());
    EXPECT_GT(field(*c, "exec_seconds_coarse"), 0.0);
    EXPECT_LT(field(*c, "xxt_err_vs_lu"), 1e-6);
    const Json* words = c->find("xxt_level_words_executed");
    ASSERT_NE(words, nullptr);
    ASSERT_EQ(static_cast<int>(words->size()), 1);  // log2(P) levels
    EXPECT_GT(words->items()[0].as_int(), 0);
  }

  // Both tiers present, split exactly at pmax.
  for (int p = 1; p <= 2048; p *= 2) {
    const Json* c = find_case(doc, "n3969/P" + std::to_string(p));
    ASSERT_NE(c, nullptr) << "P=" << p;
    ASSERT_NE(c->find("tier"), nullptr);
    EXPECT_EQ(c->find("tier")->as_string(),
              p <= 8 ? "measured" : "extrapolated");
    for (const char* key :
         {"sim_seconds_xxt", "sim_seconds_redundant_lu",
          "sim_seconds_distrib_ainv", "sim_seconds_latency_bound"})
      EXPECT_GE(field(*c, key), 0.0);
    if (p <= 8) {
      // The measured tier carries the real factor's schedule and the
      // solve was verified against banded LU inside the bench.
      EXPECT_LT(field(*c, "xxt_err_vs_lu"), 1e-6);
      EXPECT_GT(field(*c, "xxt_nnz"), 0.0);
      const Json* words = c->find("xxt_level_words");
      ASSERT_NE(words, nullptr);
      ASSERT_TRUE(words->is_array());
      int lev = 0;
      while ((1 << lev) < p) ++lev;
      EXPECT_EQ(static_cast<int>(words->size()), lev);
      std::int64_t sum = 0;
      for (const auto& w : words->items()) sum += w.as_int();
      if (p > 1) {
        EXPECT_GT(sum, 0);
      }
      EXPECT_LE(sum, static_cast<std::int64_t>(field(*c, "xxt_msg_words")));
    } else {
      EXPECT_EQ(c->find("xxt_level_words"), nullptr);
    }
  }

  // XXT must beat both baselines at scale even in the extrapolated tier
  // (the paper's headline Fig 6 shape).
  const Json* c2048 = find_case(doc, "n3969/P2048");
  EXPECT_LT(field(*c2048, "sim_seconds_xxt"),
            field(*c2048, "sim_seconds_redundant_lu"));
  EXPECT_LT(field(*c2048, "sim_seconds_xxt"),
            field(*c2048, "sim_seconds_distrib_ainv"));
  EXPECT_GE(field(*c2048, "sim_seconds_xxt"),
            field(*c2048, "sim_seconds_latency_bound"));
}

TEST(BenchSmoke, Table4MeasuredTierMatchesClusterSimAndPaperShape) {
  const std::string args =
      "--order 3 --refine 1 --pmax 16 --pexec 2 --steps 6";
  const Json doc = run_bench(TSEM_TABLE4_BIN, args, "table4_scaling");
  check_schema(doc, "table4_scaling");

  // ---- executed tier: real ranks reproduce every kernel bitwise ----
  {
    EXPECT_EQ(doc.find("meta")->find("pexec")->as_int(), 2);
    const Json* c = find_case(doc, "executed/P2");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->find("tier")->as_string(), "executed");
    for (const char* key : {"bitwise_gs", "bitwise_schwarz", "bitwise_coarse",
                            "bitwise_allreduce"}) {
      ASSERT_NE(c->find(key), nullptr) << key;
      EXPECT_TRUE(c->find(key)->as_bool()) << key;
    }
    for (const char* key :
         {"exec_seconds_compute", "exec_seconds_gs", "exec_seconds_allreduce",
          "exec_seconds_coarse"})
      EXPECT_GT(field(*c, key), 0.0) << key;
    // Overlapped mode: same kernels through the overlap drivers, bitwise
    // equal to the serialized pass, with its own timing row.
    ASSERT_NE(c->find("bitwise_overlap_vs_serialized"), nullptr);
    EXPECT_TRUE(c->find("bitwise_overlap_vs_serialized")->as_bool());
    for (const char* key :
         {"exec_seconds_compute_overlapped", "exec_seconds_gs_overlapped"})
      EXPECT_GT(field(*c, key), 0.0) << key;
    ASSERT_NE(c->find("overlap_efficiency"), nullptr);
    EXPECT_LE(field(*c, "overlap_efficiency"), 1.0);
    EXPECT_GE(c->find("oversubscription")->as_int(), 1);
    // Raw-copy executed payloads dominate the profile's dedup'd counts
    // (the refinement that buys the bitwise guarantee, dist_gs.hpp).
    EXPECT_GE(c->find("gs_max_send_words_executed")->as_int(),
              c->find("gs_max_send_words_profile")->as_int());
    EXPECT_GT(c->find("schwarz_max_send_words_executed")->as_int(), 0);
  }

  // ---- measured tier present with the full schedule provenance ----
  const Json* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->find("pmax_measured")->as_int(), 16);
  const int nelem = static_cast<int>(meta->find("measured_nelem")->as_int());
  EXPECT_EQ(nelem, 1024);  // 128 base elements, one oct-refinement

  // Independent recomputation: the same mesh and options the bench used
  // must yield exactly the schedule quantities in the JSON.
  auto spec = tsem::bump_channel_spec(
      tsem::linspace(0, 8, 8), tsem::linspace(0, 4, 4),
      {0.0, 0.3, 0.7, 1.2, 2.0}, 2.5, 2.0, 0.8, 0.3);
  spec = tsem::oct_refine(spec);
  const tsem::Mesh mesh = tsem::build_mesh(spec, 3);
  ASSERT_EQ(mesh.nelem, nelem);
  tsem::ClusterOptions copt;
  copt.max_ranks = 16;
  const tsem::ClusterSim cluster(mesh, copt);

  for (int p : {8, 16}) {
    const tsem::RankSchedule sched = cluster.schedule(p);
    for (const char* cfg : {"single/std", "dual/std", "single/perf",
                            "dual/perf"}) {
      const Json* c = find_case(
          doc, "measured/P" + std::to_string(p) + "/" + cfg);
      ASSERT_NE(c, nullptr) << p << " " << cfg;
      EXPECT_EQ(c->find("tier")->as_string(), "measured");
      EXPECT_EQ(c->find("max_rank_elems")->as_int(), sched.max_rank_elems);
      EXPECT_EQ(c->find("gs_max_send_words")->as_int(),
                sched.gs.max_send_words());
      EXPECT_EQ(c->find("gs_max_neighbors")->as_int(),
                sched.gs.max_neighbors());
      EXPECT_EQ(c->find("gs_total_words")->as_int(), sched.gs.total_words());
      EXPECT_EQ(c->find("schwarz_max_send_words")->as_int(),
                sched.schwarz.max_send_words());
      EXPECT_EQ(c->find("xxt_max_rank_nnz")->as_int(),
                sched.xxt_max_rank_nnz);
      EXPECT_EQ(c->find("coarse_n")->as_int(), sched.coarse_n);
      const Json* words = c->find("xxt_level_words");
      ASSERT_NE(words, nullptr);
      ASSERT_EQ(words->size(), sched.xxt_level_words.size());
      for (std::size_t i = 0; i < sched.xxt_level_words.size(); ++i)
        EXPECT_EQ(words->items()[i].as_int(), sched.xxt_level_words[i]);
      // The phase breakdown must account for the whole simulated time.
      const double total = field(*c, "sim_seconds");
      const double sum = field(*c, "sim_seconds_compute") +
                         field(*c, "sim_seconds_gs") +
                         field(*c, "sim_seconds_allreduce") +
                         field(*c, "sim_seconds_coarse");
      EXPECT_NEAR(sum, total, 1e-9 * total);
    }
  }

  // ---- the paper's shape invariants ----
  // Dual/single speedup in [1.2, 1.8] in both tiers (paper: 1.46 std,
  // 1.64 perf).
  auto dual_gain = [&](const std::string& prefix, const char* kernel) {
    const Json* cs = find_case(doc, prefix + "/single/" + kernel);
    const Json* cd = find_case(doc, prefix + "/dual/" + kernel);
    EXPECT_NE(cs, nullptr) << prefix;
    EXPECT_NE(cd, nullptr) << prefix;
    return field(*cs, "sim_seconds") / field(*cd, "sim_seconds");
  };
  for (const char* kernel : {"std", "perf"}) {
    for (int p : {8, 16}) {
      const double g = dual_gain("measured/P" + std::to_string(p), kernel);
      EXPECT_GE(g, 1.2) << kernel << " P=" << p;
      EXPECT_LE(g, 1.8) << kernel << " P=" << p;
    }
    for (int p : {512, 1024, 2048}) {
      const double g =
          dual_gain("extrapolated/P" + std::to_string(p), kernel);
      EXPECT_GE(g, 1.2) << kernel << " P=" << p;
      EXPECT_LE(g, 1.8) << kernel << " P=" << p;
    }
  }

  // Near-linear modeled scaling 512 -> 2048 (paper: ~3.9x of ideal 4x).
  const Json* e512 = find_case(doc, "extrapolated/P512/dual/perf");
  const Json* e2048 = find_case(doc, "extrapolated/P2048/dual/perf");
  ASSERT_NE(e512, nullptr);
  ASSERT_NE(e2048, nullptr);
  EXPECT_EQ(e512->find("tier")->as_string(), "extrapolated");
  const double speedup =
      field(*e512, "sim_seconds") / field(*e2048, "sim_seconds");
  EXPECT_GE(speedup, 3.0);
  EXPECT_LE(speedup, 4.0);

  // Measured tier itself must strong-scale: more ranks, less time.
  EXPECT_GT(field(*find_case(doc, "measured/P8/dual/perf"), "sim_seconds"),
            field(*find_case(doc, "measured/P16/dual/perf"), "sim_seconds"));
}

}  // namespace
