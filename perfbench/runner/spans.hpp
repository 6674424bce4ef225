// In-memory span recorder for the traced run. Each span is one timed call
// into a layer: name, start, end, the span that caused it, and the pass it
// belongs to. Spans stay in memory and are written at exit as
// Chrome trace-event JSON, which Perfetto and chrome://tracing open.
//
// Span names follow the per-layer metric names (`sim.launch_on` feeds
// `sim.launch_on_ms`). A product's spans hang under one root per pass,
// named after the product (`live-suite`), and under `<product>.layers`
// and `<product>.setup` roots for re-issued calls and set-up.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  ///< since the tracer's epoch
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< index of the enclosing span; -1 = root
  uint32_t pass = 0;     ///< pass (or set-up repetition) it was opened in
  uint32_t tid = 0;      ///< small per-thread id
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Disabled tracers record nothing; a scope then costs one branch.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_pass(uint32_t pass) { pass_.store(pass, std::memory_order_relaxed); }

  /// RAII span on the calling thread, nested under the thread's innermost
  /// open span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), index_(tracer.enabled() ? tracer.open(name) : -1) {}
    ~Scope() {
      if (index_ >= 0) tracer_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int32_t index() const { return index_; }

   private:
    Tracer& tracer_;
    int32_t index_;
  };

  /// The calling thread's innermost open span; -1 when it has none.
  static int32_t current();

  /// While alive, spans the calling thread opens nest under `parent`, a
  /// span opened on another thread (client threads of a pass).
  class Adopt {
   public:
    explicit Adopt(int32_t parent);
    ~Adopt();
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;
  };

  /// Recorded spans. Call only when no thread has a span open.
  const std::vector<Span>& spans() const { return spans_; }

  bool write_chrome_trace(const std::string& path) const;

 private:
  int32_t open(const char* name);
  void close(int32_t index);
  int64_t now_ns() const;

  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> pass_{0};
  const Clock::time_point epoch_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_ while threads record
};

/// Read-only view of one product's spans: the roots named `product`
/// (timed passes), `product.layers` and `product.setup`.
class LayerView {
 public:
  LayerView(const std::vector<Span>& spans, const std::string& product);

  /// Per traced pass, the summed duration (ms) of spans named `name`
  /// under this product's pass and layers roots.
  std::vector<double> per_pass_ms(const std::string& name) const;
  double median_ms(const std::string& name) const { return median(per_pass_ms(name)); }

  /// Per set-up repetition, the summed duration of spans named `name`.
  double median_setup_ms(const std::string& name) const;

  /// Per traced pass, the pass root's self time: pass time that no
  /// child span covers.
  std::vector<double> pass_self_ms() const;

  /// Prints, per span name under the pass and layers roots, the calls,
  /// total and self time summed per traced pass, as medians over passes.
  void print_table() const;

 private:
  std::vector<double> sum_by_pass(const std::string& name, bool setup) const;

  const std::vector<Span>& spans_;
  std::vector<int32_t> root_;     ///< root span of each span
  std::vector<uint8_t> kind_;     ///< root kind: 0 other product, 1 pass/layers, 2 setup
  std::vector<uint32_t> passes_;  ///< traced passes with a pass root, ascending
  std::vector<uint32_t> setups_;  ///< set-up repetitions with a setup root
  std::string product_;
};

/// Duration minus the union of the children's intervals, per span (ms).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

}  // namespace perfbench
