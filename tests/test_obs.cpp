// Observability layer tests: JSON value model round-trips, the metrics
// registry (counters / histograms / scoped timers / event trace), the
// BenchReport file format, and the end-to-end instrumentation wired into
// pcg, the Schwarz preconditioner, the XXT coarse solver, gather-scatter,
// and NavierStokes::step.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "core/pressure.hpp"
#include "core/space.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "ns/navier_stokes.hpp"
#include "obs/bench_report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "solver/cg.hpp"
#include "solver/schwarz.hpp"

namespace {

using tsem::obs::Json;
using tsem::obs::MetricsRegistry;

// ---- Json ------------------------------------------------------------

TEST(Json, TypesAndAccessors) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_EQ(Json(true).type(), Json::Type::Bool);
  EXPECT_EQ(Json(7).as_int(), 7);
  EXPECT_EQ(Json(std::int64_t{1} << 40).as_int(), std::int64_t{1} << 40);
  EXPECT_DOUBLE_EQ(Json(2.5).as_double(), 2.5);
  EXPECT_EQ(Json("hi").as_string(), "hi");
  // Cross-type numeric reads.
  EXPECT_DOUBLE_EQ(Json(3).as_double(), 3.0);
  EXPECT_EQ(Json(3.9).as_int(), 3);
}

TEST(Json, ObjectKeepsInsertionOrder) {
  Json j = Json::object();
  j["zeta"] = 1;
  j["alpha"] = 2;
  j["mid"] = 3;
  ASSERT_EQ(j.size(), 3u);
  EXPECT_EQ(j.members()[0].first, "zeta");
  EXPECT_EQ(j.members()[1].first, "alpha");
  EXPECT_EQ(j.members()[2].first, "mid");
  EXPECT_EQ(j.find("alpha")->as_int(), 2);
  EXPECT_EQ(j.find("absent"), nullptr);
}

TEST(Json, DumpCompactAndPretty) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"].push_back(true);
  j["b"].push_back(Json());
  EXPECT_EQ(j.dump(), "{\"a\":1,\"b\":[true,null]}");
  EXPECT_NE(j.dump(2).find("\n  \"a\": 1"), std::string::npos);
}

TEST(Json, RoundTripPreservesTypesAndValues) {
  Json j = Json::object();
  j["int"] = 42;
  j["big"] = (std::int64_t{1} << 60);
  j["dbl"] = 0.1;
  j["whole_dbl"] = 3.0;  // must stay a Double through the cycle
  j["neg"] = -17;
  j["str"] = "line\n\"quoted\"\t\\slash";
  j["flag"] = false;
  j["nothing"] = Json();
  Json arr = Json::array();
  for (int i = 0; i < 5; ++i) arr.push_back(i * 1.5);
  j["arr"] = std::move(arr);
  Json nested = Json::object();
  nested["k"] = "v";
  j["obj"] = std::move(nested);

  for (int indent : {0, 2}) {
    Json back;
    std::string err;
    ASSERT_TRUE(Json::parse(j.dump(indent), &back, &err)) << err;
    EXPECT_TRUE(back == j) << j.dump(indent);
    EXPECT_EQ(back.find("whole_dbl")->type(), Json::Type::Double);
    EXPECT_EQ(back.find("int")->type(), Json::Type::Int);
  }
}

TEST(Json, NonFiniteSerializesAsNull) {
  Json j = Json::array();
  j.push_back(std::nan(""));
  j.push_back(std::numeric_limits<double>::infinity());
  j.push_back(1.5);
  EXPECT_EQ(j.dump(), "[null,null,1.5]");
}

TEST(Json, ParseRejectsMalformedInput) {
  Json out;
  EXPECT_FALSE(Json::parse("", &out));
  EXPECT_FALSE(Json::parse("{", &out));
  EXPECT_FALSE(Json::parse("[1,]", &out));
  EXPECT_FALSE(Json::parse("{\"a\":1,}", &out));
  EXPECT_FALSE(Json::parse("nul", &out));
  EXPECT_FALSE(Json::parse("1 2", &out));  // trailing garbage
  EXPECT_FALSE(Json::parse("\"unterminated", &out));
  std::string err;
  EXPECT_FALSE(Json::parse("[1, oops]", &out, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Json, EveryTruncatedPrefixFailsCleanly) {
  // A fleet worker killed mid-write can leave an arbitrary prefix of a
  // result document; every such prefix must parse to a structured error,
  // never a silently-accepted partial value.
  Json doc = Json::object();
  doc["schema"] = "terasem-fleet-job-1";
  doc["digest"] = "00c0ffee";
  doc["values"] = Json::array();
  doc["values"].push_back(1);
  doc["values"].push_back(-2.5e3);
  doc["values"].push_back(true);
  doc["values"].push_back(Json());  // null
  Json nested = Json::object();
  nested["deep"] = "x\"esc\\ape\n";
  doc["nested"] = std::move(nested);
  for (int indent : {0, 2}) {
    const std::string text = doc.dump(indent);
    for (std::size_t len = 0; len < text.size(); ++len) {
      Json out;
      Json::ParseError err;
      EXPECT_FALSE(Json::parse(std::string_view(text).substr(0, len), &out,
                               &err))
          << "prefix of length " << len << " parsed";
      EXPECT_FALSE(err.message.empty());
    }
    Json out;
    ASSERT_TRUE(Json::parse(text, &out, static_cast<std::string*>(nullptr)));
    EXPECT_TRUE(out == doc);
  }
}

TEST(Json, ParseErrorCarriesPosition) {
  Json out;
  Json::ParseError err;
  ASSERT_FALSE(Json::parse("{\n  \"a\": oops\n}", &out, &err));
  EXPECT_EQ(err.line, 2);
  EXPECT_EQ(err.column, 8);
  EXPECT_EQ(err.offset, 9u);
  EXPECT_FALSE(err.message.empty());
  const std::string s = err.to_string();
  EXPECT_NE(s.find("line 2"), std::string::npos) << s;
  EXPECT_NE(s.find("column 8"), std::string::npos) << s;
}

TEST(Json, GarbageBytesNeverCrashTheParser) {
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(0, 64);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text(static_cast<std::size_t>(len(rng)), '\0');
    for (char& c : text) c = static_cast<char>(byte(rng));
    Json out;
    Json::ParseError err;
    (void)Json::parse(text, &out, &err);  // must return, not crash
  }
}

TEST(Json, ParseFileRoundTripAndFailureModes) {
  const std::string path = "test_obs_parse_file.json";
  Json doc = Json::object();
  doc["k"] = 42;
  {
    std::ofstream f(path);
    f << doc.dump(2);
  }
  Json back;
  Json::ParseError err;
  ASSERT_TRUE(Json::parse_file(path, &back, &err)) << err.to_string();
  EXPECT_TRUE(back == doc);

  // Truncated on disk: structured failure naming the file.
  {
    std::ofstream f(path);
    f << doc.dump(2).substr(0, 5);
  }
  EXPECT_FALSE(Json::parse_file(path, &back, &err));
  EXPECT_FALSE(err.message.empty());
  std::remove(path.c_str());

  // Missing file: failure, not a crash.
  EXPECT_FALSE(Json::parse_file(path, &back, &err));
  EXPECT_NE(err.message.find(path), std::string::npos) << err.message;
}

TEST(Json, ParseHandlesEscapesAndNumbers) {
  Json out;
  ASSERT_TRUE(Json::parse(R"(["aAb", -1.5e3, 0.25, 10])", &out));
  EXPECT_EQ(out.items()[0].as_string(), "aAb");
  EXPECT_DOUBLE_EQ(out.items()[1].as_double(), -1500.0);
  EXPECT_EQ(out.items()[1].type(), Json::Type::Double);
  EXPECT_DOUBLE_EQ(out.items()[2].as_double(), 0.25);
  EXPECT_EQ(out.items()[3].type(), Json::Type::Int);
}

// ---- MetricsRegistry -------------------------------------------------

TEST(Metrics, CountersAndHistograms) {
  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.counter("t/c").add(5);
  reg.counter("t/c").increment();
  EXPECT_EQ(reg.counter("t/c").value(), 6);

  auto& h = reg.histogram("t/h");
  h.record(2.0);
  h.record(-1.0);
  h.record(5.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);

  const Json snap = reg.snapshot();
  EXPECT_EQ(snap.find("counters")->find("t/c")->as_int(), 6);
  EXPECT_EQ(snap.find("stats")->find("t/h")->find("count")->as_int(), 3);

  reg.reset();
  EXPECT_EQ(reg.counter("t/c").value(), 0);
  EXPECT_EQ(reg.histogram("t/h").count(), 0);
}

TEST(Metrics, EventRingBufferDropsOldest) {
  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.set_max_events(3);
  for (int i = 0; i < 5; ++i) {
    Json e = Json::object();
    e["i"] = i;
    reg.emit(std::move(e));
  }
  const Json snap = reg.snapshot();
  const auto& events = snap.find("events")->items();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].find("i")->as_int(), 2);  // oldest two dropped
  EXPECT_EQ(events[2].find("i")->as_int(), 4);
  EXPECT_EQ(snap.find("events_dropped")->as_int(), 2);
  reg.set_max_events(4096);
  reg.reset();
}

TEST(Metrics, ScopedTimersNestLabels) {
  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  {
    tsem::obs::ScopedTimer outer("outer");
    { const tsem::obs::ScopedTimer inner("inner"); }
    outer.stop();
    // After an explicit stop, a new timer starts a fresh root label.
    const tsem::obs::ScopedTimer after("after");
  }
  EXPECT_EQ(reg.histogram("time/outer").count(), 1);
  EXPECT_EQ(reg.histogram("time/outer/inner").count(), 1);
  EXPECT_EQ(reg.histogram("time/after").count(), 1);
  EXPECT_GE(reg.histogram("time/outer").min(), 0.0);
}

TEST(Metrics, RecordSolveClassifiesByStatus) {
  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  tsem::obs::record_solve("mysolver", 12, 1.0, 1e-9, "converged");
  tsem::obs::record_solve("mysolver", 30, 2.0, 1e-3, "stalled");
  EXPECT_EQ(reg.counter("mysolver/solves").value(), 2);
  EXPECT_EQ(reg.counter("mysolver/iterations").value(), 42);
  EXPECT_EQ(reg.counter("mysolver/status/converged").value(), 1);
  EXPECT_EQ(reg.counter("mysolver/status/stalled").value(), 1);
  EXPECT_EQ(reg.histogram("mysolver/iterations").count(), 2);
  EXPECT_DOUBLE_EQ(reg.histogram("mysolver/residual/initial").max(), 2.0);
}

// ---- BenchReport -----------------------------------------------------

TEST(BenchReport, WritesSchemaValidFileAndRoundTrips) {
  char tmpl[] = "/tmp/tsem_obs_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl), nullptr);
  ASSERT_EQ(setenv("TSEM_BENCH_DIR", tmpl, 1), 0);

  MetricsRegistry::instance().reset();
  tsem::obs::count("demo/counter", 3);

  tsem::obs::BenchReport report("unit_demo");
  report.meta()["purpose"] = "test";
  Json& c = report.add_case("case0");
  c["wall_seconds"] = 0.125;
  c["iterations"] = 7;
  const std::string path = report.write();
  unsetenv("TSEM_BENCH_DIR");
  ASSERT_EQ(path, std::string(tmpl) + "/BENCH_unit_demo.json");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  Json parsed;
  std::string err;
  ASSERT_TRUE(Json::parse(ss.str(), &parsed, &err)) << err;
  EXPECT_TRUE(parsed == report.to_json());

  EXPECT_EQ(parsed.find("schema")->as_string(), "terasem-bench-1");
  EXPECT_EQ(parsed.find("name")->as_string(), "unit_demo");
  EXPECT_EQ(parsed.find("meta")->find("purpose")->as_string(), "test");
  const auto& cases = parsed.find("cases")->items();
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].find("name")->as_string(), "case0");
  EXPECT_DOUBLE_EQ(cases[0].find("wall_seconds")->as_double(), 0.125);
  if (tsem::obs::enabled()) {
    EXPECT_EQ(
        parsed.find("metrics")->find("counters")->find("demo/counter")->as_int(),
        3);
  }
  std::remove(path.c_str());
  std::remove(tmpl);
}

// ---- end-to-end instrumentation --------------------------------------

TEST(ObsIntegration, SchwarzXxtPcgGsInstrumentedOnSmallSolve) {
  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto& reg = MetricsRegistry::instance();
  reg.reset();

  // Small annulus pressure solve with the full stack: Schwarz (FDM local
  // solves + XXT coarse grid) preconditioning CG on E.
  auto spec = tsem::annulus_spec(0.7, 1.9, 2, 6, 1.3);
  tsem::Space s(tsem::build_mesh(spec, 5));
  tsem::PressureSystem p(s, s.make_mask(0x3));
  tsem::SchwarzPrecond prec(p, {});
  const std::size_t n = p.nloc();

  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> pstar(n), g(n), sol(n, 0.0);
  for (auto& v : pstar) v = dist(rng);
  p.remove_mean_plain(pstar.data());
  p.apply_E(pstar.data(), g.data());

  auto apply = [&](const double* x, double* y) {
    p.apply_E(x, y);
    p.remove_mean_plain(y);
  };
  auto dot = [n](const double* a, const double* b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
    return acc;
  };
  auto precond = [&](const double* r, double* z) {
    prec.apply(r, z);
    p.remove_mean_plain(z);
  };
  tsem::CgOptions opt;
  opt.tol = 1e-6;
  opt.relative = true;
  const auto res =
      tsem::pcg(n, apply, precond, dot, g.data(), sol.data(), opt);
  // On coarse curved meshes E has near-null pressure modes, so CG stalls
  // at an attainable floor (~1e-5 relative here) instead of hitting tol;
  // either way the residual must drop by orders of magnitude and the
  // solve must be recorded under whatever status it finished with.
  ASSERT_LT(res.final_residual, 1e-4 * res.initial_residual + 1e-12);

  // pcg recorded the solve...
  EXPECT_EQ(reg.counter("pcg/solves").value(), 1);
  const std::string status_key =
      std::string("pcg/status/") + to_string(res.status);
  EXPECT_EQ(reg.counter(status_key).value(), 1);
  EXPECT_EQ(reg.counter("pcg/iterations").value(), res.iterations);
  EXPECT_DOUBLE_EQ(reg.histogram("pcg/residual/final").max(),
                   res.final_residual);
  // ...Schwarz counted one apply per precond call with per-phase times...
  const auto applies = reg.counter("schwarz/applies").value();
  EXPECT_GE(applies, res.iterations);
  EXPECT_EQ(reg.counter("schwarz/local_solves").value(),
            applies * s.mesh().nelem);
  EXPECT_EQ(reg.histogram("time/schwarz/apply").count(), applies);
  EXPECT_EQ(reg.histogram("time/schwarz/apply/local").count(), applies);
  EXPECT_EQ(reg.histogram("time/schwarz/apply/coarse").count(), applies);
  // ...the XXT coarse solver logged factor + per-solve message volume...
  EXPECT_EQ(reg.counter("xxt/solves").value(), applies);
  EXPECT_EQ(reg.histogram("time/xxt/factor").count(), 1);
  // msg_words can be 0 when the tiny coarse grid fits one dissection
  // leaf; the factor's flop count is always positive.
  EXPECT_GE(reg.counter("xxt/msg_words").value(), 0);
  EXPECT_GT(reg.counter("xxt/flops").value(), 0);
  // ...and gather-scatter counted its exchange words (E applies use gs).
  EXPECT_GT(reg.counter("gs/ops").value(), 0);
  EXPECT_GT(reg.counter("gs/words").value(), 0);
  reg.reset();
}

TEST(ObsIntegration, NavierStokesStepEmitsStructuredEvent) {
  if (!tsem::obs::enabled()) GTEST_SKIP() << "obs compiled out";
  auto& reg = MetricsRegistry::instance();
  reg.reset();

  auto spec = tsem::box_spec_2d(tsem::linspace(0, 2 * M_PI, 3),
                                tsem::linspace(0, 2 * M_PI, 3));
  spec.periodic_x = spec.periodic_y = true;
  tsem::Space s(tsem::build_mesh(spec, 5));
  const auto& m = s.mesh();
  tsem::NsOptions opt;
  opt.dt = 0.01;
  opt.viscosity = 0.05;
  tsem::NavierStokes ns(s, 0u, opt);
  for (std::size_t i = 0; i < s.nlocal(); ++i) {
    ns.u(0)[i] = std::sin(m.x[i]) * std::cos(m.y[i]);
    ns.u(1)[i] = -std::cos(m.x[i]) * std::sin(m.y[i]);
  }
  const auto st1 = ns.step();
  const auto st2 = ns.step();

  const Json snap = reg.snapshot();
  const auto& events = snap.find("events")->items();
  // Select the ns/step events: this test is about the step event's
  // shape, not the length of the whole stream.
  std::vector<const Json*> steps;
  for (const auto& ev : events)
    if (const Json* name = ev.find("event");
        name && name->as_string() == "ns/step")
      steps.push_back(&ev);
  ASSERT_EQ(steps.size(), 2u);
  const Json& e = *steps[1];
  EXPECT_EQ(e.find("step")->as_int(), st2.step);
  EXPECT_EQ(e.find("pressure_iters")->as_int(), st2.pressure_iters);
  EXPECT_EQ(e.find("pressure_status")->as_string(),
            to_string(st2.pressure_status));
  EXPECT_EQ(e.find("attempts")->as_int(), st2.attempts);
  EXPECT_FALSE(e.find("failed")->as_bool());
  ASSERT_EQ(e.find("helmholtz_iters")->size(), 3u);
  EXPECT_EQ(e.find("helmholtz_iters")->items()[0].as_int(),
            st2.helmholtz_iters[0]);

  EXPECT_EQ(reg.counter("ns/steps").value(), 2);
  EXPECT_EQ(reg.histogram("time/ns/step").count(), 2);
  // Inner solves run under the active ns/step phase, so their timers pick
  // up the nested label.
  EXPECT_EQ(reg.histogram("time/ns/step/pressure/solve").count(), 2);
  EXPECT_GE(reg.histogram("time/ns/step/helmholtz/solve").count(), 2);
  EXPECT_EQ(reg.histogram("time/ns/step/convection").count(), 2);
  EXPECT_EQ(reg.histogram("ns/pressure_iters").count(), 2);
  (void)st1;
  reg.reset();
}

}  // namespace
