// Tests for the simulated-machine cost model.
#include <gtest/gtest.h>

#include <cmath>

#include "bench/hairpin_model.hpp"
#include "sim/machine.hpp"

namespace {

using tsem::MachineParams;

TEST(Machine, BasicCosts) {
  MachineParams m;
  m.alpha = 1e-5;
  m.beta = 1e-8;
  m.flop_rate = 1e8;
  EXPECT_DOUBLE_EQ(m.msg_time(100), 1e-5 + 100 * 1e-8);
  EXPECT_DOUBLE_EQ(m.compute_time(1e8), 1.0);
}

TEST(Machine, AllgatherScalesLogarithmicallyInLatency) {
  MachineParams m;
  m.alpha = 1e-5;
  m.beta = 0.0;  // isolate latency
  const double t4 = tsem::allgather_time(m, 4, 1000);
  const double t16 = tsem::allgather_time(m, 16, 1000);
  EXPECT_DOUBLE_EQ(t4, 2e-5);
  EXPECT_DOUBLE_EQ(t16, 4e-5);
  EXPECT_DOUBLE_EQ(tsem::allgather_time(m, 1, 1000), 0.0);
}

TEST(Machine, AllgatherCostsNLog2PWords) {
  // The paper bills the gather-everything alternatives at n log2 P words
  // (see sim/machine.cpp); verify that model.
  // Includes the x4 mesh-bisection contention factor (see machine.cpp).
  MachineParams m;
  m.alpha = 0.0;
  m.beta = 1e-9;
  EXPECT_NEAR(tsem::allgather_time(m, 2, 1000), 4 * 1000 * 1e-9, 1e-15);
  EXPECT_NEAR(tsem::allgather_time(m, 1024, 1000), 40 * 1000 * 1e-9, 1e-15);
}

TEST(Machine, TreeFanCountsBothDirections) {
  MachineParams m;
  m.alpha = 1e-6;
  m.beta = 1e-9;
  const std::int64_t words[3] = {100, 50, 25};
  const double t = tsem::tree_fan_time(m, words, 3);
  EXPECT_NEAR(t, 2.0 * (3e-6 + 175 * 1e-9), 1e-15);
}

TEST(Machine, LatencyBoundMatchesPaperCurve) {
  MachineParams m;
  m.alpha = 50e-6;
  EXPECT_NEAR(tsem::latency_bound(m, 1024), 50e-6 * 2 * 10, 1e-12);
  // The paper's Fig 6 curve reads ~1 ms at P = 2048.
  EXPECT_NEAR(tsem::latency_bound(tsem::MachineParams::asci_red(false, false),
                                  2048),
              1.1e-3, 2e-4);
}

// ---- golden-value regression locks ------------------------------------
//
// Every reproduced table and figure is a deterministic function of the
// four primitives below and the ASCI-Red calibration constants.  The
// expected values here are hand-computed closed forms written as
// literals, so a calibration-constant or recursion change can never
// silently shift the scaling studies: it must come through this file.

TEST(MachineGolden, AsciRedCalibrationConstants) {
  const auto ss = MachineParams::asci_red(false, false);
  EXPECT_DOUBLE_EQ(ss.alpha, 50e-6);
  EXPECT_DOUBLE_EQ(ss.beta, 8.0 / 310e6);
  EXPECT_DOUBLE_EQ(ss.flop_rate, 90e6);
  EXPECT_DOUBLE_EQ(MachineParams::asci_red(false, true).flop_rate, 95e6);
  // Dual-processor gains: 1.46x (std.), 1.64x (perf., 82% efficiency).
  EXPECT_DOUBLE_EQ(MachineParams::asci_red(true, false).flop_rate,
                   90e6 * 1.46);
  EXPECT_DOUBLE_EQ(MachineParams::asci_red(true, true).flop_rate,
                   95e6 * 1.64);
}

TEST(MachineGolden, AllreduceClosedForm) {
  // allreduce = log2(P) * (alpha + words*beta).  On asci-red std at
  // P = 256, 1 word: 8 * (50e-6 + 8/310e6) = 4.0020645161290322e-4 s.
  const auto m = MachineParams::asci_red(false, false);
  EXPECT_NEAR(tsem::allreduce_time(m, 256, 1), 4.0020645161290322e-4, 1e-15);
  // Non-power-of-two P rounds stages up: P = 6 -> 3 stages.
  EXPECT_NEAR(tsem::allreduce_time(m, 6, 1), 1.5007741935483871e-4, 1e-15);
  EXPECT_DOUBLE_EQ(tsem::allreduce_time(m, 1, 1), 0.0);
}

TEST(MachineGolden, AllgatherClosedForm) {
  // allgather = log2(P) * (alpha + 4*words*beta), the x4 being the mesh
  // bisection-contention factor.  asci-red std, P = 1024, n = 10142
  // (the paper's coarse size): 10 * (50e-6 + 4*10142*8/310e6)
  // = 1.0969161290322581e-2 s.
  const auto m = MachineParams::asci_red(false, false);
  EXPECT_NEAR(tsem::allgather_time(m, 1024, 10142), 1.0969161290322581e-2,
              1e-14);
  EXPECT_DOUBLE_EQ(tsem::allgather_time(m, 1, 10142), 0.0);
}

TEST(MachineGolden, TreeFanClosedForm) {
  // tree_fan = 2 * sum_l (alpha + words[l]*beta): fan-in plus the
  // mirroring fan-out.  asci-red std with levels {100, 50, 25}:
  // 2 * (3*50e-6 + 175*8/310e6) = 3.0903225806451611e-4 s.
  const auto m = MachineParams::asci_red(false, false);
  const std::int64_t words[3] = {100, 50, 25};
  EXPECT_NEAR(tsem::tree_fan_time(m, words, 3), 3.0903225806451611e-4, 1e-15);
  EXPECT_DOUBLE_EQ(tsem::tree_fan_time(m, words, 0), 0.0);
}

TEST(MachineGolden, LatencyBoundClosedForm) {
  // latency_bound = 2 * alpha * log2(P): 1.1e-3 s exactly at P = 2048 on
  // asci-red (the paper's Fig 6 floor, ~1 ms).
  const auto m = MachineParams::asci_red(false, false);
  EXPECT_DOUBLE_EQ(tsem::latency_bound(m, 2048), 1.1e-3);
  EXPECT_DOUBLE_EQ(tsem::latency_bound(m, 2), 1e-4);
  EXPECT_DOUBLE_EQ(tsem::latency_bound(m, 1), 0.0);
}

// The shared pressure-iteration transient (Fig 8 / Table 4): a single
// definition in hairpin_model.hpp so the two reproductions cannot drift.
TEST(HairpinModel, PressureTransientProfile) {
  EXPECT_DOUBLE_EQ(tsem::hairpin::transient_pressure_iters(0), 300.0);
  const auto prof = tsem::hairpin::pressure_iteration_profile(26);
  ASSERT_EQ(prof.size(), 26u);
  for (int n = 0; n < 26; ++n) {
    EXPECT_DOUBLE_EQ(prof[n], 40.0 + 260.0 * std::exp(-n / 4.0));
    if (n > 0) {
      EXPECT_LT(prof[n], prof[n - 1]);  // monotone decay
    }
  }
  // Settles into the paper's 30-50 band by mid-run.
  EXPECT_LT(prof[15], 50.0);
  EXPECT_GT(prof.back(), 40.0);
  EXPECT_LT(prof.back(), 41.0);
}

TEST(Machine, AsciRedTiersOrdering) {
  const auto ss = MachineParams::asci_red(false, false);
  const auto sp = MachineParams::asci_red(false, true);
  const auto ds = MachineParams::asci_red(true, false);
  const auto dp = MachineParams::asci_red(true, true);
  EXPECT_LT(ss.flop_rate, sp.flop_rate);
  EXPECT_LT(ss.flop_rate, ds.flop_rate);
  EXPECT_LT(ds.flop_rate, dp.flop_rate);
  // Dual-processor efficiency < 2x (shared memory bus, paper: 82%).
  EXPECT_LT(dp.flop_rate, 2.0 * sp.flop_rate);
}

}  // namespace
