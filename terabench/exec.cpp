// exec_ranks: the executed tier.  P = online cores (rounded down to a power
// of two for the bisection) forked rank processes run over an RSB
// partition of the Table 4 bump mesh.  Each pseudo-step does an element
// Helmholtz apply with the distributed gather-scatter, the Schwarz ghost
// exchange with local FDM solves, an allreduce and the XXT tree walk.
// Each repetition sets up afresh (mesh, partition, XXT factor, plans) and
// runs one serialized and one overlapped session, until the run's seconds
// are spent.  Every session's results must be bitwise equal to each other
// and to the single-process references (dist_gs_reference,
// dist_xxt_reference, the SchwarzLocalSolver sweep, the rank-ordered sum).
//
// Forked ranks run only the serial element-list kernels; the references,
// which use the OpenMP production kernels, run after the last session.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/operators.hpp"
#include "fem/fem.hpp"
#include "mesh/build.hpp"
#include "mesh/spec.hpp"
#include "mp/dist_gs.hpp"
#include "mp/dist_schwarz.hpp"
#include "mp/dist_xxt.hpp"
#include "mp/overlap.hpp"
#include "mp/runtime.hpp"
#include "partition/rsb.hpp"
#include "solver/coarse.hpp"
#include "solver/overlap.hpp"
#include "solver/schwarz.hpp"

namespace terabench {
namespace {

constexpr int kOrder = 4;
constexpr int kRefine = 1;        // 128 base elements -> K = 1024
constexpr int kRepsPerSession = 40;
/// Nested-dissection levels of the XXT factor: the Table 4 bench's
/// 256-rank tree.  Deeper trees factor far faster (2 levels take ~40 s at
/// K = 8192) and serve any P <= 2^levels.
constexpr int kXxtLevels = 8;
constexpr double kH1 = 1.0;       // Helmholtz coefficients of the applies
constexpr double kH2 = 0.5;

using tsem::mp::Phase;

/// Everything the sessions share, built once per setup.
struct Setup {
  tsem::Mesh mesh;
  int p = 2;
  std::vector<int> elem_rank;
  std::unique_ptr<tsem::XxtSolver> xxt;
  std::unique_ptr<tsem::GhostExchange> gx;
  tsem::mp::DistGsPlan gs_plan;
  std::unique_ptr<tsem::mp::DistGhost> ghost;
  tsem::mp::DistXxtPlan xplan;
  std::unique_ptr<tsem::SchwarzLocalSolver> slocal;
  std::vector<tsem::mp::OverlapSplit> gs_splits, sw_splits;
  double rsb_s = 0.0, xxt_s = 0.0, plan_s = 0.0, total_s = 0.0;
};

int log2_floor(int n) {
  int l = 0;
  while ((2 << l) <= n) ++l;
  return l;
}

std::unique_ptr<Setup> build_setup(int p, Tracer& tr) {
  auto s = std::make_unique<Setup>();
  const ScopedSpan span(tr, "setup");
  const double t0 = now();
  auto spec = tsem::bump_channel_spec(
      tsem::linspace(0, 8, 8), tsem::linspace(0, 4, 4),
      {0.0, 0.3, 0.7, 1.2, 2.0}, 2.5, 2.0, 0.8, 0.3);
  for (int r = 0; r < kRefine; ++r) spec = tsem::oct_refine(spec);
  {
    const ScopedSpan m(tr, "mesh.build");
    s->mesh = tsem::build_mesh(spec, kOrder);
  }
  s->p = p;
  double t = now();
  {
    const ScopedSpan m(tr, "partition.rsb");
    s->elem_rank = tsem::recursive_spectral_bisection(s->mesh, p);
  }
  s->rsb_s = now() - t;
  t = now();
  {
    const ScopedSpan m(tr, "solver.xxt_factor");
    const tsem::CsrMatrix a0 =
        tsem::pin_dof(tsem::q1_vertex_laplacian(s->mesh), 0);
    std::vector<double> vx, vy, vz;
    tsem::vertex_coords(s->mesh, vx, vy, vz);
    const auto nd = tsem::nested_dissection(a0, vx, vy, vz, kXxtLevels);
    s->xxt = std::make_unique<tsem::XxtSolver>(a0, nd);
  }
  s->xxt_s = now() - t;
  t = now();
  {
    const ScopedSpan m(tr, "mp.plan");
    s->gx = std::make_unique<tsem::GhostExchange>(s->mesh, kOrder - 1, 1);
    s->gs_plan = tsem::mp::build_dist_gs(s->mesh.node_id, s->mesh.npe,
                                         s->elem_rank, p);
    s->ghost = std::make_unique<tsem::mp::DistGhost>(*s->gx, s->elem_rank, p);
    s->xplan = tsem::mp::build_dist_xxt(*s->xxt, p);
    s->slocal = std::make_unique<tsem::SchwarzLocalSolver>(
        s->mesh, s->gx->ng1(), s->gx->nlayers());
    for (int r = 0; r < p; ++r) {
      s->gs_splits.push_back(tsem::mp::classify_elements(
          s->gs_plan.ranks[static_cast<std::size_t>(r)], s->gs_plan.npe));
      s->sw_splits.push_back(tsem::mp::classify_elements(
          s->ghost->plan().ranks[static_cast<std::size_t>(r)],
          s->ghost->plan().npe));
    }
  }
  s->plan_s = now() - t;
  s->total_s = now() - t0;
  return s;
}

/// Channels for every neighbor pair of a plan, both directions.
std::vector<tsem::mp::GsChannels> make_channels(
    tsem::mp::MpSession& ses, const tsem::mp::DistGsPlan& plan,
    std::size_t nslots) {
  std::map<std::pair<int, int>, tsem::mp::ShmChannel*> by_pair;
  for (int r = 0; r < plan.nranks; ++r) {
    const auto& rk = plan.ranks[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < rk.nbrs.size(); ++i)
      by_pair[{r, rk.nbrs[i]}] = ses.channel(rk.send_ix[i].size(), nslots);
  }
  std::vector<tsem::mp::GsChannels> out(static_cast<std::size_t>(plan.nranks));
  for (int r = 0; r < plan.nranks; ++r)
    for (int q : plan.ranks[static_cast<std::size_t>(r)].nbrs) {
      out[static_cast<std::size_t>(r)].to.push_back(by_pair.at({r, q}));
      out[static_cast<std::size_t>(r)].from.push_back(by_pair.at({q, r}));
    }
  return out;
}

struct Inputs {
  std::vector<double> u0, p0, b;
};

/// One session's outputs: timings and every communicated result.
struct SessionOut {
  bool ok = false;
  std::string err;
  double wall = 0.0;
  double launch = 0.0;
  double phase[tsem::mp::kNumPhases] = {0, 0, 0, 0};
  std::vector<double> gs_out, ghost_out, z_out, x_out, dot_out;
};

SessionOut run_session(const Setup& s, const Inputs& in, bool overlapped) {
  const tsem::Mesh& mesh = s.mesh;
  const tsem::GhostExchange& gx = *s.gx;
  const tsem::mp::DistGhost& ghost = *s.ghost;
  const int p = s.p;
  const int n = s.xplan.n;
  const std::size_t npe_press = ghost.npress_per_elem();
  const std::size_t spe =
      static_cast<std::size_t>(2 * gx.dim()) * gx.tang_slots();
  const std::size_t np_glob = static_cast<std::size_t>(mesh.nelem) * npe_press;
  const std::size_t ng_glob =
      static_cast<std::size_t>(gx.nlayers()) * gx.nslots();

  SessionOut out;
  const double t0 = now();
  tsem::mp::MpOptions opt;
  opt.nranks = p;
  tsem::mp::MpSession ses(opt);
  const auto gs_ch = make_channels(ses, s.gs_plan, 1);
  const auto sw_ch = make_channels(ses, ghost.plan(),
                                   static_cast<std::size_t>(gx.nlayers()));
  tsem::mp::DistXxtPlan xplan = s.xplan;  // channels are per session
  xplan.attach_channels(ses);

  double* u_sh = ses.shared_doubles(s.gs_plan.nglobal);
  double* gs_out = ses.shared_doubles(s.gs_plan.nglobal);
  double* p_sh = ses.shared_doubles(np_glob);
  double* ghost_out = ses.shared_doubles(ng_glob);
  double* z_out = ses.shared_doubles(np_glob);
  double* b_sh = ses.shared_doubles(static_cast<std::size_t>(n));
  double* x_out = ses.shared_doubles(static_cast<std::size_t>(n));
  double* dot_out = ses.shared_doubles(static_cast<std::size_t>(p));
  // Per-rank entry/exit stamps on the run clock (inherited over fork).
  double* stamps = ses.shared_doubles(2 * static_cast<std::size_t>(p));
  std::memcpy(u_sh, in.u0.data(), in.u0.size() * sizeof(double));
  std::memcpy(p_sh, in.p0.data(), in.p0.size() * sizeof(double));
  std::memcpy(b_sh, in.b.data(), in.b.size() * sizeof(double));

  out.ok = ses.run(
      [&](tsem::mp::MpRank& ctx) {
        const int r = ctx.rank();
        stamps[2 * r] = now();
        const auto& grk = s.gs_plan.ranks[static_cast<std::size_t>(r)];
        const auto& srk = ghost.plan().ranks[static_cast<std::size_t>(r)];
        const auto& gsp = s.gs_splits[static_cast<std::size_t>(r)];
        const auto& swp = s.sw_splits[static_cast<std::size_t>(r)];
        const std::size_t ns = srk.nlocal;
        const std::size_t nloc_e = srk.elems.size();
        std::vector<double> u_loc(grk.nlocal), w_loc(grk.nlocal);
        std::vector<double> p_loc(nloc_e * npe_press);
        std::vector<double> z_loc(nloc_e * npe_press);
        std::vector<double> g_loc(static_cast<std::size_t>(gx.nlayers()) * ns);
        std::vector<double> v_loc(static_cast<std::size_t>(gx.nlayers()) * ns);
        std::vector<double> lwork(s.slocal->work_doubles());
        std::vector<std::int32_t> geo;
        tsem::TensorWork twork;
        tsem::mp::GsScratch gs_scratch;
        tsem::mp::DistGhost::Scratch sw_scratch;
        tsem::mp::XxtScratch xxt_scratch;
        const auto helm = [&](const std::int32_t* ls, std::size_t nn) {
          if (nn == 0) return;
          geo.resize(nn);
          for (std::size_t i = 0; i < nn; ++i) geo[i] = grk.elems[ls[i]];
          tsem::apply_helmholtz_local_elems(mesh, kH1, kH2, geo.data(), ls,
                                            nn, u_loc.data(), w_loc.data(),
                                            twork);
        };
        const auto sw_solve = [&](const std::int32_t* ls, std::size_t nn) {
          if (nn == 0) return;
          geo.resize(nn);
          for (std::size_t i = 0; i < nn; ++i) geo[i] = srk.elems[ls[i]];
          s.slocal->solve_elems(geo.data(), ls, nn, p_loc.data(),
                                g_loc.data(), ns, z_loc.data(), v_loc.data(),
                                lwork.data());
        };
        for (int rep = 0; rep < kRepsPerSession; ++rep) {
          double t = now();
          for (std::size_t l = 0; l < grk.nlocal; ++l)
            u_loc[l] = u_sh[s.gs_plan.global_index(r, l)];
          for (std::size_t e = 0; e < nloc_e; ++e)
            std::memcpy(p_loc.data() + e * npe_press,
                        p_sh + static_cast<std::size_t>(srk.elems[e]) *
                                   npe_press,
                        npe_press * sizeof(double));
          std::fill(z_loc.begin(), z_loc.end(), 0.0);
          ctx.phase_add(Phase::Compute, now() - t);

          t = now();
          double partial = 0.0;
          for (std::size_t l = 0; l < grk.nlocal; ++l) partial += u_loc[l];
          double total = 0.0;
          if (!ctx.allreduce_sum(partial, &total)) return 1;
          dot_out[r] = total;
          ctx.phase_add(Phase::Allreduce, now() - t);

          tsem::mp::OverlapTimes ot;
          if (!tsem::mp::overlapped_gs_apply(
                  grk, gsp, ctx, gs_ch[static_cast<std::size_t>(r)],
                  w_loc.data(), tsem::GsOp::Add, gs_scratch, helm,
                  overlapped, &ot))
            return 2;
          if (!tsem::mp::overlapped_ghost_exchange(
                  ghost, swp, r, ctx, sw_ch[static_cast<std::size_t>(r)],
                  p_loc.data(), g_loc.data(), sw_scratch, sw_solve,
                  overlapped, &ot))
            return 3;
          ctx.phase_add(Phase::Compute, ot.compute);
          ctx.phase_add(Phase::Gs, ot.exchange);

          t = now();
          if (!tsem::mp::dist_xxt_solve(xplan, r, ctx, b_sh, x_out,
                                        xxt_scratch))
            return 4;
          ctx.phase_add(Phase::Coarse, now() - t);
          if (!ctx.barrier()) return 5;
        }
        for (std::size_t l = 0; l < grk.nlocal; ++l)
          gs_out[s.gs_plan.global_index(r, l)] = w_loc[l];
        for (std::size_t e = 0; e < nloc_e; ++e) {
          const std::size_t ge = static_cast<std::size_t>(srk.elems[e]);
          std::memcpy(z_out + ge * npe_press, z_loc.data() + e * npe_press,
                      npe_press * sizeof(double));
          for (int l = 0; l < gx.nlayers(); ++l)
            std::memcpy(ghost_out + static_cast<std::size_t>(l) * gx.nslots() +
                            ge * spe,
                        g_loc.data() + static_cast<std::size_t>(l) * ns +
                            e * spe,
                        spe * sizeof(double));
        }
        stamps[2 * r + 1] = now();
        return 0;
      },
      &out.err);
  out.wall = now() - t0;
  double first_in = t0, last_out = t0;
  for (int r = 0; r < p; ++r) {
    first_in = std::max(first_in, stamps[2 * r]);
    last_out = std::max(last_out, stamps[2 * r + 1]);
  }
  // Arena, channels and forks before the last rank starts, plus reaping
  // after the last rank is done.
  out.launch = (first_in - t0) + (t0 + out.wall - last_out);
  for (int ph = 0; ph < tsem::mp::kNumPhases; ++ph)
    out.phase[ph] = ses.phase_max_seconds(static_cast<Phase>(ph));
  out.gs_out.assign(gs_out, gs_out + s.gs_plan.nglobal);
  out.ghost_out.assign(ghost_out, ghost_out + ng_glob);
  out.z_out.assign(z_out, z_out + np_glob);
  out.x_out.assign(x_out, x_out + n);
  out.dot_out.assign(dot_out, dot_out + p);
  return out;
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> random_field(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> u(n);
  for (auto& v : u) v = dist(rng);
  return u;
}

}  // namespace

Result run_exec_ranks(const Args& a, Tracer& tr) {
  Result r;
  const int p = std::max(2, 1 << log2_floor(ncores()));
  r.inputs["seed"] = static_cast<std::int64_t>(a.seed);
  r.inputs["ranks"] = p;
  r.inputs["order"] = kOrder;
  r.inputs["refine"] = kRefine;
  r.inputs["reps_per_session"] = kRepsPerSession;

  // Repetition = fresh setup + one serialized and one overlapped session.
  // The first repetition's inputs and first session's buffers are the
  // references; set-up is deterministic, so every later session must
  // match them bitwise.
  std::mt19937 rng(a.seed);
  Inputs in;
  std::unique_ptr<Setup> s;
  SessionOut first;
  bool have_first = false;
  const double t_start = now();
  int pair = 0;
  for (bool more = true; more; ++pair) {
    tr.set_run(pair);
    s = build_setup(p, tr);
    r.sample("setup_s", s->total_s);
    r.sample("partition.rsb_s", s->rsb_s);
    r.sample("solver.xxt_factor_s", s->xxt_s);
    r.sample("mp.plan_s", s->plan_s);
    if (pair == 0) {
      // Seeded random input fields (the program sees only these).
      in.u0 = random_field(s->gs_plan.nglobal, rng);
      in.p0 = random_field(static_cast<std::size_t>(s->mesh.nelem) *
                               s->ghost->npress_per_elem(),
                           rng);
      in.b = random_field(static_cast<std::size_t>(s->xplan.n), rng);
      r.inputs["nelem"] = s->mesh.nelem;
      std::int64_t gs_words = 0, sw_words = 0;
      for (int q = 0; q < p; ++q) {
        gs_words = std::max(gs_words, s->gs_plan.send_words(q));
        sw_words = std::max(sw_words, s->ghost->plan().send_words(q) *
                                          s->gx->nlayers());
      }
      r.layer("mp.gs_send_words", static_cast<double>(gs_words));
      r.layer("mp.schwarz_send_words", static_cast<double>(sw_words));
    }
    SessionOut so[2];
    for (int k = 0; k < 2; ++k) {
      const bool ovl = k == 1;
      const ScopedSpan sp(tr, ovl ? "mp.session.overlapped"
                                  : "mp.session.serialized");
      so[k] = run_session(*s, in, ovl);
    }
    for (int k = 0; k < 2; ++k) {
      SessionOut& o = so[k];
      r.attempted += kRepsPerSession;
      bool ok = o.ok;
      r.check(o.ok, "session error: " + o.err);
      if (o.ok && !have_first) {
        first = o;
        have_first = true;
      } else if (o.ok) {
        const bool eq = same(o.gs_out, first.gs_out) &&
                        same(o.ghost_out, first.ghost_out) &&
                        same(o.z_out, first.z_out) &&
                        same(o.x_out, first.x_out) &&
                        same(o.dot_out, first.dot_out);
        r.check(eq, std::string(k ? "overlapped" : "serialized") +
                        " session differs bitwise from the first session");
        ok = ok && eq;
      }
      if (!ok) r.failed += kRepsPerSession;
      if (!o.ok) continue;
      const char* sfx = k ? "_ovl" : "_ser";
      for (int ph = 0; ph < tsem::mp::kNumPhases; ++ph) {
        r.sample(std::string("mp.") +
                     tsem::mp::phase_name(static_cast<Phase>(ph)) + "_s" +
                     sfx,
                 o.phase[ph] / kRepsPerSession);
      }
      r.sample(std::string("mp.launch_s") + sfx, o.launch);
    }
    if (so[0].ok && so[1].ok) {
      r.sample("exec_step_s", so[0].wall / kRepsPerSession);
      r.sample("exec_step_overlapped_s", so[1].wall / kRepsPerSession);
      r.sample("solve_s", so[0].wall + so[1].wall);
      r.sample("makespan_s", s->total_s + so[0].wall + so[1].wall);
      const double g = so[0].phase[static_cast<int>(Phase::Gs)];
      if (g > 0.0)
        r.sample("mp.overlap_efficiency",
                 1.0 - so[1].phase[static_cast<int>(Phase::Gs)] / g);
    }
    more = now() - t_start < a.seconds;
  }

  // Bitwise references, after the last fork (see the file comment).
  if (have_first) {
    const ScopedSpan sp(tr, "references");
    const tsem::Mesh& mesh = s->mesh;
    const tsem::GhostExchange& gx = *s->gx;
    std::vector<double> gs_ref(s->gs_plan.nglobal);
    {
      tsem::TensorWork twork;
      tsem::apply_helmholtz_local(mesh, kH1, kH2, in.u0.data(), gs_ref.data(),
                                  twork);
    }
    tsem::mp::dist_gs_reference(s->gs_plan, gs_ref.data(), tsem::GsOp::Add);
    const bool gs_ok = same(gs_ref, first.gs_out);
    r.check(gs_ok, "gather-scatter differs bitwise from dist_gs_reference");

    const std::size_t ng_glob =
        static_cast<std::size_t>(gx.nlayers()) * gx.nslots();
    std::vector<double> ghost_ref(ng_glob), vout(ng_glob);
    gx.exchange(in.p0.data(), ghost_ref.data());
    std::vector<double> z_ref(in.p0.size(), 0.0);
    std::vector<std::int32_t> all(static_cast<std::size_t>(mesh.nelem));
    for (int e = 0; e < mesh.nelem; ++e) all[static_cast<std::size_t>(e)] = e;
    std::vector<double> lwork(s->slocal->work_doubles());
    s->slocal->solve_elems(all.data(), nullptr, all.size(), in.p0.data(),
                           ghost_ref.data(), gx.nslots(), z_ref.data(),
                           vout.data(), lwork.data());
    const bool sw_ok =
        same(ghost_ref, first.ghost_out) && same(z_ref, first.z_out);
    r.check(sw_ok, "Schwarz ghost exchange / local solves differ bitwise from the "
            "SchwarzLocalSolver sweep");

    std::vector<double> x_ref(static_cast<std::size_t>(s->xplan.n));
    tsem::mp::dist_xxt_reference(s->xplan, in.b.data(), x_ref.data());
    const bool xxt_ok = same(x_ref, first.x_out);
    r.check(xxt_ok, "XXT solve differs bitwise from dist_xxt_reference");

    double dot_ref = 0.0;
    for (int q = 0; q < p; ++q) {
      double partial = 0.0;
      const auto& grk = s->gs_plan.ranks[static_cast<std::size_t>(q)];
      for (std::size_t l = 0; l < grk.nlocal; ++l)
        partial += in.u0[s->gs_plan.global_index(q, l)];
      dot_ref += partial;
    }
    bool dot_ok = true;
    for (double d : first.dot_out) dot_ok = dot_ok && d == dot_ref;
    r.check(dot_ok, "allreduce differs bitwise from the rank-ordered sum");
    // A reference mismatch condemns every session (they all equal first).
    if (!(gs_ok && sw_ok && xxt_ok && dot_ok)) r.failed = r.attempted;
  }
  r.sample("peak_rss_mb", peak_rss_mb(true));
  return r;
}

}  // namespace terabench
