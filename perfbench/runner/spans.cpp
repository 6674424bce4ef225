#include "spans.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <set>

namespace perfbench {

namespace {

thread_local std::vector<int32_t> t_open;  // this thread's open spans, innermost last
std::atomic<uint32_t> g_next_tid{0};
thread_local const uint32_t t_tid = g_next_tid.fetch_add(1);

constexpr uint8_t kOther = 0;
constexpr uint8_t kPass = 1;
constexpr uint8_t kSetup = 2;

}  // namespace

int32_t Tracer::current() { return t_open.empty() ? -1 : t_open.back(); }

Tracer::Adopt::Adopt(int32_t parent) { t_open.push_back(parent); }

Tracer::Adopt::~Adopt() { t_open.pop_back(); }

int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

int32_t Tracer::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.pass = pass_.load(std::memory_order_relaxed);
  span.tid = t_tid;
  span.start_ns = now_ns();
  span.end_ns = span.start_ns;
  int32_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int32_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open.push_back(index);
  return index;
}

void Tracer::close(int32_t index) {
  const int64_t end = now_ns();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end_ns = end;
  }
  t_open.pop_back();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"pass\": %u}}%s\n",
                 s.name.c_str(), s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.pass,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0) children[static_cast<size_t>(spans[i].parent)].push_back(static_cast<int32_t>(i));
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    // Children may run concurrently on other threads, so subtract the
    // union of their intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (int32_t c : children[i]) {
      const Span& child = spans[static_cast<size_t>(c)];
      cover.emplace_back(std::max(begin, child.start_ns), std::min(end, child.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = begin;
    for (const auto& [a, b] : cover) {
      const int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    self[i] = static_cast<double>(end - begin - covered) / 1e6;
  }
  return self;
}

LayerView::LayerView(const std::vector<Span>& spans, const std::string& product)
    : spans_(spans), root_(spans.size(), -1), kind_(spans.size(), kOther), product_(product) {
  std::set<uint32_t> passes;
  std::set<uint32_t> setups;
  // A parent is always opened before its children, so one forward sweep
  // resolves every span's root.
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      root_[i] = static_cast<int32_t>(i);
      if (s.name == product || s.name == product + ".layers") {
        kind_[i] = kPass;
        if (s.name == product) passes.insert(s.pass);
      } else if (s.name == product + ".setup") {
        kind_[i] = kSetup;
        setups.insert(s.pass);
      }
    } else {
      root_[i] = root_[static_cast<size_t>(s.parent)];
      kind_[i] = kind_[static_cast<size_t>(root_[i])];
    }
  }
  passes_.assign(passes.begin(), passes.end());
  setups_.assign(setups.begin(), setups.end());
}

std::vector<double> LayerView::sum_by_pass(const std::string& name, bool setup) const {
  const uint8_t want = setup ? kSetup : kPass;
  const std::vector<uint32_t>& keys = setup ? setups_ : passes_;
  std::map<uint32_t, double> sums;
  for (uint32_t key : keys) sums[key] = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (kind_[i] != want || spans_[i].name != name) continue;
    const Span& root = spans_[static_cast<size_t>(root_[i])];
    auto it = sums.find(root.pass);
    if (it != sums.end()) it->second += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
  }
  std::vector<double> out;
  out.reserve(sums.size());
  for (const auto& [key, ms] : sums) out.push_back(ms);
  return out;
}

std::vector<double> LayerView::per_pass_ms(const std::string& name) const {
  return sum_by_pass(name, /*setup=*/false);
}

double LayerView::median_setup_ms(const std::string& name) const {
  return median(sum_by_pass(name, /*setup=*/true));
}

std::vector<double> LayerView::pass_self_ms() const {
  const std::vector<double> self = self_times_ms(spans_);
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent < 0 && spans_[i].name == product_) out.push_back(self[i]);
  return out;
}

void LayerView::print_table() const {
  const std::vector<double> self = self_times_ms(spans_);
  std::map<std::string, std::map<uint32_t, std::array<double, 3>>> table;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (kind_[i] != kPass) continue;
    auto& cell = table[spans_[i].name][spans_[static_cast<size_t>(root_[i])].pass];
    cell[0] += 1.0;
    cell[1] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
    cell[2] += self[i];
  }
  std::printf("%s: per-layer time, median per traced pass over %zu passes "
              "(self = not in a child span):\n",
              product_.c_str(), passes_.size());
  std::printf("  %-34s %9s %12s %12s\n", "span", "calls", "total_ms", "self_ms");
  for (const auto& [name, by_pass] : table) {
    std::vector<double> calls, total, own;
    for (uint32_t pass : passes_) {
      auto it = by_pass.find(pass);
      const std::array<double, 3> cell = it == by_pass.end() ? std::array<double, 3>{} : it->second;
      calls.push_back(cell[0]);
      total.push_back(cell[1]);
      own.push_back(cell[2]);
    }
    std::printf("  %-34s %9.1f %12.3f %12.3f\n", name.c_str(), median(calls), median(total),
                median(own));
  }
}

}  // namespace perfbench
