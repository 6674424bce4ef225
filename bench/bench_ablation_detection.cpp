// Ablations of the HAccRG design choices DESIGN.md calls out:
//
//  A. Fence gating (Section III-C): without it, every cross-thread
//     read-after-write between barriers is flagged — the legitimate
//     threadfence pattern in REDUCE/PSUM/KMEANS would drown in reports.
//     (We ablate by running with the fence IDs frozen, which makes the
//     gate always report.)
//  B. Warp-awareness (Section III-A): with the intra-warp filter off
//     (the warp_regrouping setting), SIMD-synchronized accesses are
//     reported as races — quantifying how much noise the filter removes.
//  C. Sync-ID increment suppression (Section IV-B): the fraction of
//     barrier events that actually advance a sync ID, i.e. how much the
//     "only if the block touched global memory" optimization saves the
//     8-bit counters.
//  D. Static RDU filter: the compile-time race analysis classifies each
//     memory pc; accesses proved safe at the detector's granularity skip
//     their shadow check entirely. Reported races must be identical —
//     the filter only removes provably-redundant check work.
#include "bench/harness.hpp"
#include "isa/builder.hpp"

namespace {

/// A warp-synchronous reduction: the last five tree steps run without
/// barriers, relying on SIMD lockstep (a classic pre-Volta idiom). Safe
/// under normal execution; racy if warps are re-grouped.
haccrg::sim::SimResult run_warp_synchronous(bool regrouping) {
  using namespace haccrg;
  rd::HaccrgConfig det = bench::detection_word();
  det.warp_regrouping = regrouping;
  arch::GpuConfig cfg = bench::experiment_gpu();
  sim::Gpu gpu(cfg, det);
  const u32 block = 64;
  const Addr out = gpu.allocator().alloc(4, "out");

  isa::KernelBuilder kb("warpsync_reduce");
  isa::Reg tid = kb.special(isa::SpecialReg::kTid);
  isa::Reg pout = kb.param(0);
  isa::Reg saddr = kb.reg();
  kb.mul(saddr, tid, 4u);
  kb.st_shared(saddr, tid);
  kb.barrier();
  // One barriered step 64 -> 32, then warp-synchronous steps 32 -> 1.
  isa::Pred low = kb.pred();
  kb.setp(low, isa::CmpOp::kLtU, tid, 32u);
  kb.if_(low, [&] {
    isa::Reg mine = kb.reg();
    isa::Reg theirs = kb.reg();
    kb.ld_shared(mine, saddr);
    kb.ld_shared(theirs, saddr, 32 * 4);
    kb.add(mine, mine, isa::Operand(theirs));
    kb.st_shared(saddr, mine);
  });
  kb.barrier();
  for (u32 stride = 16; stride > 0; stride /= 2) {
    isa::Pred active = kb.pred();
    kb.setp(active, isa::CmpOp::kLtU, tid, stride);
    kb.if_(active, [&] {
      isa::Reg mine = kb.reg();
      isa::Reg theirs = kb.reg();
      kb.ld_shared(mine, saddr);
      kb.ld_shared(theirs, saddr, stride * 4);
      kb.add(mine, mine, isa::Operand(theirs));
      kb.st_shared(saddr, mine);
    });
    // No barrier: all active lanes are in warp 0.
  }
  isa::Pred is0 = kb.pred();
  kb.setp(is0, isa::CmpOp::kEq, tid, 0u);
  kb.if_(is0, [&] {
    isa::Reg sum = kb.reg();
    isa::Reg zero = kb.imm(0);
    kb.ld_shared(sum, zero);
    kb.st_global(pout, sum);
  });
  isa::Program prog = kb.build();

  sim::LaunchConfig launch;
  launch.program = &prog;
  launch.grid_dim = 1;
  launch.block_dim = block;
  launch.shared_mem_bytes = block * 4;
  launch.params = {out};
  return gpu.launch(launch);
}

}  // namespace

int main() {
  using namespace haccrg;
  bench::print_header("Design ablations", "Sections III-A, III-C, IV-B design choices");

  // --- B: warp filter --------------------------------------------------------
  std::printf("Warp-awareness ablation on a warp-synchronous reduction (the last five\n"
              "tree steps run barrier-free inside one warp — safe under SIMD lockstep):\n");
  {
    sim::SimResult on = run_warp_synchronous(false);
    sim::SimResult off = run_warp_synchronous(true);
    TablePrinter warp_table({"Config", "Shared races"});
    warp_table.add_row({"warp filter on (normal)", std::to_string(on.races.total())});
    warp_table.add_row({"warp filter off (re-grouping)", std::to_string(off.races.total())});
    warp_table.print();
  }
  std::printf("With re-grouping the lockstep guarantee is gone, so HAccRG must (and\n"
              "does) report the warp-synchronous accesses (Section III-A).\n\n");

  // --- A: fence gate ------------------------------------------------------------
  std::printf("Fence-gate ablation on the threadfence-pattern benchmarks:\n");
  TablePrinter fence_table({"Benchmark", "Races (gate on)", "Races (gate off)"});
  for (const char* name : {"REDUCE", "PSUM", "KMEANS"}) {
    rd::HaccrgConfig gate_on = bench::detection_word();
    rd::HaccrgConfig gate_off = gate_on;
    gate_off.disable_fence_gate = true;
    const u64 races_on = bench::run_benchmark(name, gate_on).races
                             .count(rd::RaceMechanism::kFence);
    const u64 races_off = bench::run_benchmark(name, gate_off).races
                              .count(rd::RaceMechanism::kFence);
    fence_table.add_row({name, std::to_string(races_on), std::to_string(races_off)});
  }
  fence_table.print();
  std::printf("Without consulting the writer's fence epoch, the legitimate fenced\n"
              "producer/consumer pattern is misreported (Section III-C).\n\n");

  // --- C: sync-ID increments ---------------------------------------------------
  std::printf("Sync-ID increment suppression (barrier events vs increments performed):\n");
  TablePrinter sync_table({"Benchmark", "Barrier events", "Sync increments", "Suppressed"});
  for (const auto& info : kernels::all_benchmarks()) {
    sim::SimResult r = bench::run_benchmark(info.name, bench::detection_combined());
    const u64 events = r.stats.get("ids.barrier_events");
    const u64 incs = r.stats.get("ids.sync_increments");
    sync_table.add_row({info.name, std::to_string(events), std::to_string(incs),
                        events == 0 ? "-" : TablePrinter::pct(1.0 - static_cast<f64>(incs) /
                                                                        static_cast<f64>(events))});
  }
  sync_table.print();
  std::printf("Barriers guarding only shared memory never advance the 8-bit counters,\n"
              "which is how the paper keeps overflow 'very rare' (Section VI-A2).\n\n");

  // --- D: static RDU filter ----------------------------------------------------
  std::printf("Static filter ablation (compile-time pruning of RDU shadow checks):\n");
  TablePrinter static_table({"Benchmark", "Checked accesses", "Filtered", "Racy granules (off)",
                             "Racy granules (filter)", "Match"});
  bool all_match = true;
  for (const auto& info : kernels::all_benchmarks()) {
    const rd::HaccrgConfig det = bench::detection_combined();
    sim::SimResult base = bench::run_benchmark(info.name, det);
    sim::SimResult filt = bench::run_benchmark_static_filtered(info.name, det);
    const u64 checked = filt.stats.get("shared_rdu.checks") + filt.stats.get("global_rdu.checks");
    const u64 filtered = filt.stats.get("rd.static_filtered");
    // Soundness criterion: the set of (space, granule) race locations must
    // be identical. Raw record counts are timing-sensitive (filtering
    // changes shadow traffic, which shifts warp interleaving and thus
    // which pc gets blamed for a granule), so they are not compared.
    const auto base_locs = rd::race_locations(base.races);
    const auto filt_locs = rd::race_locations(filt.races);
    const bool match = base_locs == filt_locs;
    all_match = all_match && match;
    static_table.add_row({info.name, std::to_string(checked), std::to_string(filtered),
                          std::to_string(base_locs.size()), std::to_string(filt_locs.size()),
                          match ? "yes" : "NO"});
  }
  static_table.print();
  std::printf("The filter removes shadow lookups for accesses the static pass proved\n"
              "race-free at the detector's granularity; every racy location is still\n"
              "detected: %s.\n",
              all_match ? "yes" : "NO (soundness bug!)");
  return all_match ? 0 : 1;
}
