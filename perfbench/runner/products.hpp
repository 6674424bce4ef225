// The system's products as the benchmark drives them. An untraced run
// measures one workload's product; a traced run measures every product.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "spans.hpp"

namespace perfbench {

struct RunContext {
  /// The workload seed: the fuzz batch's base seed, and (low 32 bits)
  /// kernels::BenchOptions::seed for the paper kernels' input data.
  uint64_t seed = 0;
  std::string out_dir;  ///< scratch files (traces, the fuzz scratch dir)
  Tracer tracer;
  Checks checks;
  OpLog ops;
};

/// Operations a run needs so that its pooled p90 has ten samples beyond it.
constexpr size_t kMinOps = 100;

/// Fewest passes of `ops_per_pass` operations that give kMinOps, and at
/// least three, for the median over passes.
inline uint32_t passes_for_min_ops(size_t ops_per_pass) {
  return static_cast<uint32_t>(std::max<size_t>(3, (kMinOps + ops_per_pass - 1) / ops_per_pass));
}

class Product {
 public:
  virtual ~Product() = default;

  /// Name of each pass's root span.
  virtual const char* name() const = 0;

  /// One set-up repetition: the work a pass needs done before timing.
  virtual void setup(uint32_t rep) = 0;

  /// One timed pass. Logs each of the workload's operations and the
  /// pass's operation window to ctx.ops, and checks outputs against
  /// set-up and the first pass.
  virtual void pass() = 0;

  /// Fewest measured passes a run needs for the end-to-end metrics.
  virtual uint32_t min_passes() const { return 3; }

  /// Widest thread count the product runs at once (provenance).
  virtual uint32_t threads_used() const = 0;

  /// Traced passes only, after the pass: re-issue, each in its own span,
  /// the public calls that a pass makes inside an opaque entry point.
  virtual void layers() {}

  /// Exact outputs of the model as JSON members for the provenance line,
  /// e.g. `"sim_cycles": 284573`; empty when the product has none.
  virtual std::string exact_json() const { return ""; }

  virtual void per_layer(const LayerView& view, Metrics& out) const = 0;
};

/// Which jobs a serve pass times as its operations: cold jobs, memoized
/// resubmissions, or (traced runs) both phases with cold jobs logged.
enum class ServeMode { kCold, kMemo, kBoth };

std::unique_ptr<Product> make_live_suite(RunContext& ctx);
std::unique_ptr<Product> make_replay(RunContext& ctx);
std::unique_ptr<Product> make_serve(RunContext& ctx, ServeMode mode);
std::unique_ptr<Product> make_fuzz_campaign(RunContext& ctx);

}  // namespace perfbench
