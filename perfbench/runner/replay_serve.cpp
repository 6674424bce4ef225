// Trace replay and the replay service, over indexed v2 traces of the paper
// kernels that set-up records with the simulator under test.
//
// replay: each pass replays every trace with trace::replay_trace, the
// `haccrg-trace replay` path, from two closed-loop client threads, as the
// serve workloads submit them; one replayed trace is an operation.
//
// serve: each pass starts a fresh serve::Server (2 workers, default
// config) and drives it from two closed-loop client threads: every trace
// once cold, then, after all cold jobs settle, ten memoized resubmits
// of each. serve-cold times the cold jobs as its operations and skips the
// memo phase; serve-memo times the memo jobs.
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "kernels/common.hpp"
#include "products.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/gpu.hpp"
#include "trace/replay.hpp"

namespace perfbench {

namespace {

using namespace haccrg;

constexpr u32 kClients = 2;
constexpr u32 kMemoRepeats = 10;
constexpr u32 kShards = 2;

bool read_file(const std::string& path, std::vector<u8>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return static_cast<bool>(in) || in.eof();
}

/// Top-level `unique_races` of a served report (the last occurrence; the
/// per-kernel entries come first).
bool report_unique_races(const std::string& report, u64& out) {
  const size_t at = report.rfind("\"unique_races\": ");
  return at != std::string::npos && json_u64_field(report.substr(at), "unique_races", out);
}

Status decode(const std::string& path, trace::DecodedTrace& out) {
  trace::TraceReader reader(path);
  return reader.ok() ? trace::decode_trace(reader, out) : reader.status();
}

/// The recorded traces both products replay: one per paper kernel at
/// experiment scale 4, combined detection, one engine thread.
class Corpus {
 public:
  struct Recording {
    std::string name;
    std::string path;
    std::vector<u8> bytes;
    std::set<trace::RaceKey> races;  ///< the recording run's race identities
    u64 unique = 0;
  };

  explicit Corpus(RunContext& ctx) : ctx_(ctx) {
    opts_.scale = bench::kExperimentScale;
    opts_.seed = static_cast<u32>(ctx.seed);
  }

  /// Records every trace; later repetitions must record the same bytes.
  void record(uint32_t rep) {
    const bool first = traces_.empty();
    const std::vector<kernels::BenchmarkInfo>& infos = kernels::all_benchmarks();
    for (size_t k = 0; k < infos.size(); ++k) {
      const kernels::BenchmarkInfo& info = infos[k];
      Recording rec;
      rec.name = info.name;
      rec.path = ctx_.out_dir + "/" + info.name + ".trc";
      Op op;
      {
        Tracer::Scope record(ctx_.tracer, "trace.record");
        sim::SimConfig sc;
        sc.num_threads = 1;
        sc.trace_path = rec.path;
        sc.trace_index = true;
        sim::Gpu gpu(bench::experiment_gpu(), bench::detection_combined(), sc);
        gpu.set_trace_label(info.name);
        kernels::PreparedKernel prep = info.prepare(gpu, opts_);
        const sim::SimResult result = gpu.launch(prep.launch());
        std::string message = "no verifier";
        op.expect(result.completed, "did not complete: " + result.error);
        op.expect(prep.verify && prep.verify(gpu.memory(), &message), "verify: " + message);
        trace::TraceWriter* writer = gpu.trace_writer();
        op.expect(writer != nullptr && writer->finish(),
                  "trace write failed: " + (writer ? writer->error() : std::string("no writer")));
        rec.races = trace::race_identity_set(result.races);
        rec.unique = result.races.unique();
      }
      op.expect(read_file(rec.path, rec.bytes), "cannot read back " + rec.path);
      if (first)
        traces_.push_back(std::move(rec));
      else
        op.expect(rec.bytes == traces_[k].bytes,
                  "set-up repetition " + std::to_string(rep) + " recorded different bytes");
      ctx_.checks.record("record " + info.name, op);
    }
  }

  const std::vector<Recording>& traces() const { return traces_; }

 private:
  RunContext& ctx_;
  kernels::BenchOptions opts_;
  std::vector<Recording> traces_;
};

class Replay final : public Product {
 public:
  explicit Replay(RunContext& ctx) : ctx_(ctx), corpus_(ctx) {}

  const char* name() const override { return "replay"; }
  uint32_t threads_used() const override { return kClients; }
  uint32_t min_passes() const override { return passes_for_min_ops(kernels::all_benchmarks().size()); }

  void setup(uint32_t rep) override { corpus_.record(rep); }

  void pass() override {
    const size_t n = corpus_.traces().size();
    const bool first = reference_.empty();
    if (first) reference_.assign(n, Counts{});
    const int32_t parent = Tracer::current();
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (u32 c = 0; c < kClients; ++c)
      clients.emplace_back([this, parent, first, c] {
        Tracer::Adopt adopt(parent);
        for (size_t t = c; t < corpus_.traces().size(); t += kClients) replay_one(t, first);
      });
    for (std::thread& client : clients) client.join();
    ctx_.ops.pass(n, ms_between(start, Clock::now()) / 1e3);
  }

  // replay_trace reads, decodes and checks in one call; re-issue the
  // decode and the serial check apart, and the check split over shards.
  void layers() override {
    for (const Corpus::Recording& rec : corpus_.traces()) {
      trace::DecodedTrace decoded;
      Status status;
      {
        Tracer::Scope span(ctx_.tracer, "trace.decode");
        status = decode(rec.path, decoded);
      }
      trace::ReplayResult serial;
      trace::ReplayResult sharded;
      if (status.ok()) {
        {
          Tracer::Scope span(ctx_.tracer, "replay.check");
          serial = trace::replay_decoded(decoded);
        }
        Tracer::Scope span(ctx_.tracer, "replay.sharded2");
        sharded = trace::replay_sharded(decoded, kShards);
      }
      Op op;
      op.expect(status.ok(), "decode failed: " + status.message());
      op.expect(serial.ok && serial.race_set() == rec.races,
                "serial replay differs from the recording run: " + serial.error);
      op.expect(sharded.ok && sharded.race_set() == rec.races,
                "sharded replay differs from the recording run: " + sharded.error);
      ctx_.checks.record("replay layers " + rec.name, op);
    }
  }

  void per_layer(const LayerView& view, Metrics& out) const override {
    out["trace.record_ms"] = {view.median_setup_ms("trace.record"), "ms"};
    out["trace.replay_trace_ms"] = {view.median_ms("trace.replay_trace"), "ms"};
    out["trace.decode_ms"] = {view.median_ms("trace.decode"), "ms"};
    const std::vector<double> serial = view.per_pass_ms("replay.check");
    const std::vector<double> sharded = view.per_pass_ms("replay.sharded2");
    std::vector<double> speedup;
    for (size_t r = 0; r < serial.size() && r < sharded.size(); ++r)
      speedup.push_back(sharded[r] > 0 ? serial[r] / sharded[r] : 0.0);
    Counts total;
    for (const Counts& c : reference_) {
      total.events += c.events;
      total.shared_checks += c.shared_checks;
      total.global_checks += c.global_checks;
    }
    out["replay.check_ms"] = {median(serial), "ms"};
    out["replay.ns_per_event"] = {median(serial) * 1e6 / static_cast<double>(total.events), "ns/event"};
    out["replay.sharded2_ms"] = {median(sharded), "ms"};
    out["replay.shard2_speedup"] = {median(speedup), "x"};
    out["replay.events"] = {static_cast<double>(total.events), "count"};
    out["replay.shared_checks"] = {static_cast<double>(total.shared_checks), "count"};
    out["replay.global_checks"] = {static_cast<double>(total.global_checks), "count"};
  }

 private:
  struct Counts {
    u64 events = 0;
    u64 shared_checks = 0;
    u64 global_checks = 0;
  };

  void replay_one(size_t t, bool first) {
    const Corpus::Recording& rec = corpus_.traces()[t];
    const auto t0 = Clock::now();
    trace::ReplayResult result;
    {
      Tracer::Scope span(ctx_.tracer, "trace.replay_trace");
      result = trace::replay_trace(rec.path);
    }
    ctx_.ops.op(ms_between(t0, Clock::now()));
    Op op;
    op.expect(result.ok, "replay failed: " + result.error);
    op.expect(result.race_set() == rec.races, "race set differs from the recording run");
    ctx_.checks.record("replay " + rec.name, op);
    if (first) {
      Counts& counts = reference_[t];
      counts.events = result.total_events;
      for (const trace::KernelReplay& kernel : result.kernels) {
        counts.shared_checks += kernel.shared_checks;
        counts.global_checks += kernel.global_checks;
      }
    }
  }

  RunContext& ctx_;
  Corpus corpus_;
  std::vector<Counts> reference_;  ///< per trace, from the first pass
};

class Serve final : public Product {
 public:
  Serve(RunContext& ctx, ServeMode mode) : ctx_(ctx), mode_(mode), corpus_(ctx) {}

  const char* name() const override {
    return mode_ == ServeMode::kCold ? "serve-cold" : mode_ == ServeMode::kMemo ? "serve-memo" : "serve";
  }
  // Two client threads and the server's two workers.
  uint32_t threads_used() const override { return kClients + serve::ServerConfig{}.workers; }

  uint32_t min_passes() const override {
    return passes_for_min_ops(kernels::all_benchmarks().size() * (mode_ == ServeMode::kMemo ? kMemoRepeats : 1));
  }

  void setup(uint32_t rep) override { corpus_.record(rep); }

  void pass() override {
    const size_t n = corpus_.traces().size();
    const bool memo = mode_ != ServeMode::kCold;
    std::optional<serve::Server> server;
    {
      Tracer::Scope span(ctx_.tracer, "serve.server_start");
      server.emplace(serve::ServerConfig{});
    }
    cold_reports_.assign(n, std::string());
    cold_ms_.assign(n, 0.0);
    {
      Tracer::Scope phase(ctx_.tracer, "serve.cold");
      const auto start = Clock::now();
      run_clients(*server, phase.index(), /*memo=*/false);
      if (mode_ != ServeMode::kMemo) ctx_.ops.pass(n, ms_between(start, Clock::now()) / 1e3);
    }
    if (memo) {
      Tracer::Scope phase(ctx_.tracer, "serve.memo");
      const auto start = Clock::now();
      run_clients(*server, phase.index(), /*memo=*/true);
      if (mode_ == ServeMode::kMemo) ctx_.ops.pass(n * kMemoRepeats, ms_between(start, Clock::now()) / 1e3);
    }

    std::string stats;
    Op op;
    op.expect(serve::Client::in_process(*server).stats(stats).ok(), "STATS request failed");
    ServeStats s;
    op.expect(json_u64_field(stats, "submitted", s.submitted) &&
                  json_u64_field(stats, "memo_hits", s.memo_hits) &&
                  json_u64_field(stats, "trace_decodes", s.trace_decodes) &&
                  json_u64_field(stats, "trace_cache_hits", s.trace_cache_hits) &&
                  json_u64_field(stats, "arena_reuses", s.arena_reuses) &&
                  json_u64_field(stats, "arena_builds", s.arena_builds) &&
                  json_u64_field(stats, "rejected", s.rejected),
              "STATS lacks a counter: " + stats);
    const u64 memo_jobs = memo ? n * kMemoRepeats : 0;
    op.expect(s.submitted == n + memo_jobs,
              "submitted " + std::to_string(s.submitted) + ", expected " + std::to_string(n + memo_jobs));
    op.expect(s.memo_hits == memo_jobs,
              "memo_hits " + std::to_string(s.memo_hits) + ", expected " + std::to_string(memo_jobs));
    ctx_.checks.record("serve stats", op);
    serve_stats_.push_back(s);
    Tracer::Scope span(ctx_.tracer, "serve.server_stop");
    server.reset();
  }

  // A cold job decodes and checks its trace inside the server; re-issue
  // both for each trace to split the cold latency into detector work and
  // the service's own overhead (frames, hashing, copies, queue, render).
  void layers() override {
    double overhead_ms = 0.0;
    const std::vector<Corpus::Recording>& traces = corpus_.traces();
    for (size_t t = 0; t < traces.size(); ++t) {
      const auto t0 = Clock::now();
      trace::DecodedTrace decoded;
      Status status;
      {
        Tracer::Scope span(ctx_.tracer, "trace.decode");
        status = decode(traces[t].path, decoded);
      }
      trace::ReplayResult result;
      {
        Tracer::Scope span(ctx_.tracer, "replay.check");
        if (status.ok()) result = trace::replay_decoded(decoded);
      }
      overhead_ms += cold_ms_[t] - ms_between(t0, Clock::now());
      Op op;
      op.expect(status.ok(), "decode failed: " + status.message());
      op.expect(result.ok && result.race_set() == traces[t].races,
                "serial replay differs from the recording run: " + result.error);
      ctx_.checks.record("serve layers " + traces[t].name, op);
    }
    cold_overhead_ms_.push_back(overhead_ms);
  }

  void per_layer(const LayerView& view, Metrics& out) const override {
    out["serve.submit_ms"] = {view.median_ms("serve.submit"), "ms"};
    out["serve.result_wait_ms"] = {view.median_ms("serve.result_wait"), "ms"};
    out["serve.cold_overhead_ms"] = {median(cold_overhead_ms_), "ms"};

    std::vector<double> decodes, cache_hits, memo_ratio, arena_ratio, rejected;
    for (const ServeStats& s : serve_stats_) {
      decodes.push_back(static_cast<double>(s.trace_decodes));
      cache_hits.push_back(static_cast<double>(s.trace_cache_hits));
      memo_ratio.push_back(s.submitted ? static_cast<double>(s.memo_hits) / static_cast<double>(s.submitted) : 0.0);
      const u64 arena_uses = s.arena_reuses + s.arena_builds;
      arena_ratio.push_back(arena_uses ? static_cast<double>(s.arena_reuses) / static_cast<double>(arena_uses) : 0.0);
      rejected.push_back(static_cast<double>(s.rejected));
    }
    out["serve.trace_decodes"] = {median(decodes), "count"};
    out["serve.trace_cache_hits"] = {median(cache_hits), "count"};
    out["serve.memo_hit_ratio"] = {median(memo_ratio), "ratio"};
    out["serve.arena_reuse_ratio"] = {median(arena_ratio), "ratio"};
    out["serve.rejected"] = {median(rejected), "count"};
  }

 private:
  struct ServeStats {
    u64 submitted = 0;
    u64 memo_hits = 0;
    u64 trace_decodes = 0;
    u64 trace_cache_hits = 0;
    u64 arena_reuses = 0;
    u64 arena_builds = 0;
    u64 rejected = 0;
  };

  /// Two closed-loop clients with one job outstanding each; client c owns
  /// traces c, c + kClients, ... A cold round submits each trace once
  /// and keeps its report; a memo round resubmits each kMemoRepeats times
  /// and requires the cold report byte for byte.
  void run_clients(serve::Server& server, int32_t parent, bool memo) {
    std::vector<std::thread> clients;
    for (u32 c = 0; c < kClients; ++c) {
      clients.emplace_back([this, &server, parent, memo, c] {
        try {
          client_loop(server, parent, memo, c);
        } catch (const std::exception& e) {
          Op op;
          op.expect(false, std::string("client thread threw: ") + e.what());
          ctx_.checks.record("serve client " + std::to_string(c), op);
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }

  /// Client c's closed loop: submit, wait for the report, check it. The
  /// jobs of the phase this mode times are logged as operations.
  void client_loop(serve::Server& server, int32_t parent, bool memo, u32 c) {
    Tracer::Adopt adopt(parent);
    serve::Client client = serve::Client::in_process(server);
    const std::vector<Corpus::Recording>& traces = corpus_.traces();
    const bool logged = memo == (mode_ == ServeMode::kMemo);
    for (u32 rep = 0; rep < (memo ? kMemoRepeats : 1); ++rep) {
      for (size_t t = c; t < traces.size(); t += kClients) {
        const auto t0 = Clock::now();
        u64 job = 0;
        Status submitted;
        {
          Tracer::Scope span(ctx_.tracer, "serve.submit");
          submitted = client.submit(traces[t].bytes, 1, -1, 0, job);
        }
        std::string report;
        Status fetched;
        {
          Tracer::Scope span(ctx_.tracer, "serve.result_wait");
          if (submitted.ok()) fetched = client.result(job, /*wait=*/true, report);
        }
        const double latency = ms_between(t0, Clock::now());
        if (logged) ctx_.ops.op(latency);
        Op op;
        op.expect(submitted.ok(), "submit: " + submitted.message());
        // A waited RESULT is OK only for a job that settled kDone.
        op.expect(fetched.ok(), "job did not settle kDone: " + fetched.message());
        if (memo) {
          op.expect(report == cold_reports_[t], "memo report differs from the cold report");
        } else {
          u64 unique = 0;
          op.expect(report_unique_races(report, unique) && unique == traces[t].unique,
                    "served unique_races differs from the recording run");
          cold_reports_[t] = std::move(report);
          cold_ms_[t] = latency;
        }
        ctx_.checks.record(std::string(memo ? "memo job " : "cold job ") + traces[t].name, op);
      }
    }
  }

  RunContext& ctx_;
  const ServeMode mode_;
  Corpus corpus_;

  // Current pass, per trace (read by layers() right after it).
  std::vector<std::string> cold_reports_;
  std::vector<double> cold_ms_;

  std::vector<ServeStats> serve_stats_;   ///< per pass
  std::vector<double> cold_overhead_ms_;  ///< per traced pass
};

}  // namespace

std::unique_ptr<Product> make_replay(RunContext& ctx) { return std::make_unique<Replay>(ctx); }

std::unique_ptr<Product> make_serve(RunContext& ctx, ServeMode mode) {
  return std::make_unique<Serve>(ctx, mode);
}

}  // namespace perfbench
