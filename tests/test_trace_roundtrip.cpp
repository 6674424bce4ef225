// Wire-format tests for the access-trace subsystem: varint/zigzag edge
// values, header and event round-trips, canonical re-encoding (the same
// records always produce the same bytes), and rejection of truncated or
// corrupted inputs. The randomized suite drives the encoder/decoder pair
// with PRNG-built event streams so field combinations no registry kernel
// happens to produce are still covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "temp_path.hpp"
#include "trace/format.hpp"
#include "trace/reader.hpp"
#include "trace/replay.hpp"
#include "trace/writer.hpp"

namespace haccrg {
namespace {

using trace::DecodeCursor;
using trace::Event;
using trace::EventKind;
using trace::TraceHeader;
using trace::TraceLane;

/// SplitMix64: tiny, deterministic, seedable — all this suite needs.
struct Rng {
  u64 state;
  explicit Rng(u64 seed) : state(seed) {}
  u64 next() {
    state += 0x9e3779b97f4a7c15ULL;
    u64 z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  u32 below(u32 bound) { return bound == 0 ? 0 : static_cast<u32>(next() % bound); }
  bool chance(u32 percent) { return below(100) < percent; }
};

TraceHeader sample_header() {
  TraceHeader h;
  h.num_sms = 8;
  h.warp_size = 32;
  h.max_blocks_per_sm = 8;
  h.max_threads_per_sm = 1024;
  h.shared_mem_per_sm = 16 * 1024;
  h.shared_mem_banks = 32;
  h.l1_line = 128;
  h.device_mem_bytes = 32ull * 1024 * 1024;
  h.enable_shared = true;
  h.enable_global = true;
  h.shared_granularity = 16;
  h.global_granularity = 4;
  h.bloom_bits = 16;
  h.bloom_bins = 2;
  h.max_recorded_races = 4096;
  return h;
}

TEST(TraceVarint, EdgeValuesRoundTrip) {
  const u64 values[] = {0,     1,          127,        128,       255,  300, 16383,
                        16384, 0xffffffff, 1ull << 32, ~0ull >> 1, ~0ull};
  for (u64 v : values) {
    std::vector<u8> buf;
    trace::put_varint(buf, v);
    ASSERT_LE(buf.size(), 10u) << v;
    DecodeCursor cursor{buf.data(), buf.size(), 0, {}};
    u64 back = 0;
    ASSERT_TRUE(cursor.get_varint(back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(cursor.at_end()) << v;
  }
}

TEST(TraceVarint, TruncatedVarintFails) {
  std::vector<u8> buf;
  trace::put_varint(buf, 1ull << 40);
  for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
    DecodeCursor cursor{buf.data(), cut, 0, {}};
    u64 out = 0;
    EXPECT_FALSE(cursor.get_varint(out)) << cut;
    EXPECT_TRUE(cursor.failed());
  }
}

TEST(TraceVarint, OverlongVarintRejected) {
  // Eleven continuation bytes cannot be a valid LEB128 u64.
  std::vector<u8> buf(11, 0x80);
  DecodeCursor cursor{buf.data(), buf.size(), 0, {}};
  u64 out = 0;
  EXPECT_FALSE(cursor.get_varint(out));
  EXPECT_NE(cursor.error.find("varint"), std::string::npos);
}

TEST(TraceZigzag, EdgeValuesRoundTrip) {
  const i64 values[] = {0, 1, -1, 2, -2, 1 << 20, -(1 << 20), INT64_MAX, INT64_MIN};
  for (i64 v : values) EXPECT_EQ(trace::zigzag_decode(trace::zigzag_encode(v)), v);
  // Small magnitudes must stay small on the wire (the point of zigzag).
  EXPECT_EQ(trace::zigzag_encode(-1), 1u);
  EXPECT_EQ(trace::zigzag_encode(1), 2u);
}

TEST(TraceHeaderFormat, RoundTrips) {
  const TraceHeader h = sample_header();
  std::vector<u8> buf;
  trace::encode_header(h, buf);
  DecodeCursor cursor{buf.data(), buf.size(), 0, {}};
  TraceHeader back;
  ASSERT_TRUE(trace::decode_header(cursor, back)) << cursor.error;
  EXPECT_EQ(back, h);
  EXPECT_TRUE(cursor.at_end());
}

TEST(TraceHeaderFormat, BadMagicRejected) {
  std::vector<u8> buf;
  trace::encode_header(sample_header(), buf);
  buf[3] ^= 0xff;
  trace::TraceReader reader(buf);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("magic"), std::string::npos);
}

TEST(TraceHeaderFormat, WrongVersionRejected) {
  std::vector<u8> buf;
  trace::encode_header(sample_header(), buf);
  buf[8] = 0x7f;  // version low byte
  trace::TraceReader reader(buf);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("version"), std::string::npos);
}

TEST(TraceHeaderFormat, ImplausibleGeometryRejected) {
  TraceHeader h = sample_header();
  h.warp_size = 33;
  std::vector<u8> buf;
  trace::encode_header(h, buf);
  trace::TraceReader reader(buf);
  EXPECT_FALSE(reader.ok());
}

TEST(TraceHeaderFormat, EveryTruncationRejected) {
  std::vector<u8> buf;
  trace::encode_header(sample_header(), buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    trace::TraceReader reader(std::vector<u8>(buf.begin(), buf.begin() + cut));
    EXPECT_FALSE(reader.ok()) << "prefix of " << cut << " bytes parsed as a header";
  }
}

// --- Randomized event streams -----------------------------------------------

/// Build a random event that satisfies the encoder's invariants and only
/// sets fields its kind encodes (so decode(encode(e)) == e holds).
Event random_event(Rng& rng, Cycle& cycle) {
  Event e;
  const u8 kind = static_cast<u8>(trace::kMinEventKind + rng.below(trace::kMaxEventKind));
  e.kind = static_cast<EventKind>(kind);
  cycle += rng.below(5000);
  e.cycle = cycle;

  auto fill_lanes = [&](bool addrs, bool hits) {
    const u32 count = rng.below(33);
    Addr addr = rng.next() & 0xffffff;
    for (u32 i = 0; i < count; ++i) {
      TraceLane lane;
      lane.lane = static_cast<u8>(rng.below(32));
      if (addrs) {
        // Mix ascending, equal, and descending deltas.
        addr = rng.chance(30) ? static_cast<Addr>(rng.next() & 0xffffff)
                              : addr + rng.below(64) - 16;
        lane.addr = addr;
      }
      if (hits && rng.chance(40)) {
        lane.l1_hit = true;
        lane.l1_fill = e.cycle - rng.below(static_cast<u32>(std::min<Cycle>(e.cycle, 100000)) + 1);
      }
      e.lanes.push_back(lane);
    }
  };

  switch (e.kind) {
    case EventKind::kKernelBegin:
      e.cycle = 0;  // decode pins kernel-begin cycles to the reset base
      cycle = 0;
      e.grid_dim = 1 + rng.below(4096);
      e.block_dim = 1 + rng.below(1024);
      e.shared_mem_bytes = rng.below(16 * 1024);
      e.app_heap_bytes = rng.below(1 << 24);
      e.shadow_base = rng.below(1 << 24);
      e.label.assign(rng.below(64), 'k');
      break;
    case EventKind::kKernelEnd:
      break;
    case EventKind::kBlockLaunch:
      e.sm = rng.below(64);
      e.block_slot = rng.below(8);
      e.block_id = rng.below(1 << 20);
      e.warp_base = rng.below(32);
      e.num_warps = 1 + rng.below(32);
      e.thread_base = rng.below(1024);
      e.smem_base = rng.below(16 * 1024);
      e.smem_bytes = rng.below(16 * 1024);
      break;
    case EventKind::kBlockFinish:
    case EventKind::kBarrierRelease:
      e.sm = rng.below(64);
      e.block_slot = rng.below(8);
      e.smem_base = rng.below(16 * 1024);
      e.smem_bytes = rng.below(16 * 1024);
      break;
    case EventKind::kBarrierArrive:
      e.sm = rng.below(64);
      e.block_slot = rng.below(8);
      e.warp_slot = rng.below(32);
      break;
    case EventKind::kFence:
    case EventKind::kFenceCommit:
      e.sm = rng.below(64);
      e.warp_slot = rng.below(32);
      break;
    case EventKind::kLockAcquire:
    case EventKind::kLockRelease:
      e.sm = rng.below(64);
      e.block_slot = rng.below(8);
      e.warp_slot = rng.below(32);
      e.warp_in_block = rng.below(32);
      e.pc = rng.below(4096);
      fill_lanes(/*addrs=*/e.kind == EventKind::kLockAcquire, /*hits=*/false);
      break;
    default:  // the six memory-access kinds
      e.sm = rng.below(64);
      e.block_slot = rng.below(8);
      e.warp_slot = rng.below(32);
      e.warp_in_block = rng.below(32);
      e.pc = rng.below(4096);
      e.width = static_cast<u8>(1u << rng.below(4));
      e.checked = rng.chance(70);
      fill_lanes(/*addrs=*/true, /*hits=*/e.kind == EventKind::kGlobalLoad);
      break;
  }
  return e;
}

TEST(TraceProperty, RandomStreamsRoundTripAndReencodeByteExact) {
  for (u64 seed = 0; seed < 20; ++seed) {
    Rng rng(seed * 0x1234567 + 99);
    const TraceHeader header = sample_header();
    std::vector<Event> events;
    Cycle cycle = 0;
    const u32 count = 1 + rng.below(400);
    for (u32 i = 0; i < count; ++i) events.push_back(random_event(rng, cycle));

    std::vector<u8> encoded;
    trace::encode_header(header, encoded);
    Cycle last = 0;
    for (const Event& e : events) trace::encode_event(e, last, encoded);

    trace::TraceReader reader(encoded);
    ASSERT_TRUE(reader.ok()) << "seed " << seed << ": " << reader.error();
    EXPECT_EQ(reader.header(), header);

    std::vector<u8> reencoded;
    trace::encode_header(reader.header(), reencoded);
    Cycle relast = 0;
    Event back;
    size_t i = 0;
    while (reader.next(back)) {
      ASSERT_LT(i, events.size()) << "seed " << seed;
      EXPECT_EQ(back, events[i]) << "seed " << seed << " event " << i;
      trace::encode_event(back, relast, reencoded);
      ++i;
    }
    EXPECT_EQ(reader.error(), "");
    EXPECT_EQ(i, events.size()) << "seed " << seed;
    EXPECT_EQ(reencoded, encoded) << "seed " << seed << ": canonical encoding violated";
  }
}

TEST(TraceProperty, EveryTruncationFailsCleanly) {
  Rng rng(42);
  const TraceHeader header = sample_header();
  std::vector<u8> encoded;
  trace::encode_header(header, encoded);
  Cycle cycle = 0;
  Cycle last = 0;
  for (u32 i = 0; i < 40; ++i) trace::encode_event(random_event(rng, cycle), last, encoded);

  // Any strict prefix must either stop with an error or decode only whole
  // events — never crash, never loop, never fabricate trailing records.
  for (size_t cut = 0; cut < encoded.size(); cut += 3) {
    trace::TraceReader reader(std::vector<u8>(encoded.begin(), encoded.begin() + cut));
    if (!reader.ok()) continue;  // header itself truncated
    Event e;
    u64 seen = 0;
    while (reader.next(e)) ++seen;
    EXPECT_LE(seen, 40u);
    // A mid-event cut must be reported unless the cut landed exactly on
    // an event boundary.
    if (!reader.error().empty()) {
      EXPECT_NE(reader.error().find("truncated"), std::string::npos) << reader.error();
    }
  }
}

TEST(TraceProperty, BitFlipsNeverCrash) {
  Rng rng(7);
  const TraceHeader header = sample_header();
  std::vector<u8> encoded;
  trace::encode_header(header, encoded);
  Cycle cycle = 0;
  Cycle last = 0;
  for (u32 i = 0; i < 60; ++i) trace::encode_event(random_event(rng, cycle), last, encoded);

  Rng flips(1234);
  for (u32 trial = 0; trial < 200; ++trial) {
    std::vector<u8> mutated = encoded;
    mutated[flips.below(static_cast<u32>(mutated.size()))] ^=
        static_cast<u8>(1u << flips.below(8));
    trace::TraceReader reader(std::move(mutated));
    if (!reader.ok()) continue;
    Event e;
    u64 seen = 0;
    while (reader.next(e) && seen < 10000) ++seen;
    EXPECT_LT(seen, 10000u) << "decoder failed to terminate on corrupt input";
  }
}

TEST(TraceProperty, BitFlipCorpusResyncsOrFailsCleanly) {
  // Seeded multi-bit-flip corpus: every mutated stream must produce
  // either a structured Status error or a successful resync — never a
  // crash, a hang, or an unreported loss. Stronger than BitFlipsNeverCrash
  // above: it drives the recovery path, not just the failure path.
  Rng rng(29);
  const TraceHeader header = sample_header();
  std::vector<u8> encoded;
  trace::encode_header(header, encoded);
  Cycle cycle = 0;
  Cycle last = 0;
  for (u32 i = 0; i < 60; ++i) trace::encode_event(random_event(rng, cycle), last, encoded);

  Rng flips(0xfeedbeef);
  for (u32 trial = 0; trial < 300; ++trial) {
    std::vector<u8> mutated = encoded;
    const u32 num_flips = 1 + flips.below(4);
    for (u32 f = 0; f < num_flips; ++f)
      mutated[flips.below(static_cast<u32>(mutated.size()))] ^=
          static_cast<u8>(1u << flips.below(8));
    trace::TraceReader reader(std::move(mutated));
    if (!reader.ok()) {
      EXPECT_NE(reader.status().code(), StatusCode::kOk) << "trial " << trial;
      EXPECT_FALSE(reader.status().to_string().empty());
      continue;
    }
    Event e;
    u64 seen = 0;
    while (seen < 20000) {
      if (reader.next(e)) {
        ++seen;
        continue;
      }
      if (reader.error().empty()) break;  // clean end of stream
      EXPECT_NE(reader.status().code(), StatusCode::kOk) << "trial " << trial;
      if (!reader.resync()) break;  // unrecoverable: reported, not silent
    }
    EXPECT_LT(seen, 20000u) << "trial " << trial << ": reader failed to terminate";
    if (reader.resyncs() != 0) {
      EXPECT_GT(reader.bytes_skipped(), 0u) << "trial " << trial << ": silent resync";
    }
  }
}

TEST(TraceProperty, BitFlipReplayFailsCleanly) {
  // The same corpus through the full replay engine: a damaged stream must
  // end in ReplayResult{ok=false, structured code} or succeed — the
  // detectors may see garbage events but must never index out of range
  // (replay bounds-checks every identifier) or over-allocate (the
  // kernel-begin footprint cap).
  Rng rng(31);
  const TraceHeader header = sample_header();
  std::vector<u8> encoded;
  trace::encode_header(header, encoded);
  Cycle cycle = 0;
  Cycle last = 0;
  for (u32 i = 0; i < 40; ++i) trace::encode_event(random_event(rng, cycle), last, encoded);

  Rng flips(0xabcd1234);
  for (u32 trial = 0; trial < 120; ++trial) {
    std::vector<u8> mutated = encoded;
    const u32 num_flips = 1 + flips.below(3);
    for (u32 f = 0; f < num_flips; ++f)
      mutated[flips.below(static_cast<u32>(mutated.size()))] ^=
          static_cast<u8>(1u << flips.below(8));
    trace::TraceReader reader(std::move(mutated));
    const trace::ReplayResult result = trace::replay_events(reader, trace::ReplayOptions{});
    if (!result.ok) {
      EXPECT_FALSE(result.error.empty()) << "trial " << trial;
      EXPECT_NE(result.status().code(), StatusCode::kOk) << "trial " << trial;
    }
  }
}

TEST(TraceResync, RecoversAfterDamagedRecord) {
  // Deterministic recovery: clobber one whole record in the middle of a
  // stream of well-formed events and check the reader resynchronizes,
  // loses only a bounded region, and reports exactly what it skipped.
  const TraceHeader header = sample_header();
  std::vector<u8> encoded;
  trace::encode_header(header, encoded);
  std::vector<size_t> starts;
  Cycle last = 0;
  const u32 kEvents = 60;
  for (u32 i = 0; i < kEvents; ++i) {
    Event e;
    e.kind = EventKind::kSharedStore;
    e.cycle = 10 * (i + 1);
    e.sm = i % 8;
    e.block_slot = i % 4;
    e.warp_slot = i % 16;
    e.warp_in_block = i % 4;
    e.pc = 100 + i;
    e.width = 4;
    e.checked = true;
    for (u32 lane = 0; lane < 4; ++lane) e.lanes.push_back({static_cast<u8>(lane),
                                                            0x100u + 4 * lane, false, 0});
    starts.push_back(encoded.size());
    trace::encode_event(e, last, encoded);
  }
  // Stomp the 30th record (and nothing after it) with 0xff bytes.
  const size_t victim = starts[30];
  const size_t victim_end = starts[31];
  for (size_t pos = victim; pos < victim_end; ++pos) encoded[pos] = 0xff;

  trace::TraceReader reader(encoded);
  ASSERT_TRUE(reader.ok()) << reader.error();
  Event e;
  u64 seen = 0;
  u64 rounds = 0;
  while (rounds < 100) {
    if (reader.next(e)) {
      ++seen;
      continue;
    }
    if (reader.error().empty()) break;
    ++rounds;
    if (!reader.resync()) break;
  }
  EXPECT_TRUE(reader.error().empty()) << reader.error();
  EXPECT_GE(reader.resyncs(), 1u);
  EXPECT_GT(reader.bytes_skipped(), 0u);
  // At most a handful of records around the damage are lost.
  EXPECT_GE(seen, kEvents - 5);
  EXPECT_LT(seen, kEvents);
}

TEST(TraceWriterReader, FileRoundTrip) {
  const std::string path = testing_util::temp_path("test_trace_roundtrip.trc");
  const TraceHeader header = sample_header();
  Rng rng(5);
  std::vector<Event> events;
  Cycle cycle = 0;
  for (u32 i = 0; i < 50; ++i) events.push_back(random_event(rng, cycle));
  {
    trace::TraceWriter writer(path);
    ASSERT_TRUE(writer.ok()) << writer.error();
    writer.write_header(header);
    for (const Event& e : events) writer.write_event(e);
    ASSERT_TRUE(writer.finish()) << writer.error();
    EXPECT_EQ(writer.events_written(), events.size());
  }
  trace::TraceReader reader(path);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.header(), header);
  Event back;
  size_t i = 0;
  while (reader.next(back)) {
    ASSERT_LT(i, events.size());
    EXPECT_EQ(back, events[i]) << "event " << i;
    ++i;
  }
  EXPECT_EQ(reader.error(), "");
  EXPECT_EQ(i, events.size());

  // Rewind re-reads the same stream.
  reader.rewind();
  u64 again = 0;
  while (reader.next(back)) ++again;
  EXPECT_EQ(again, events.size());
  std::remove(path.c_str());
}

TEST(TraceWriterReader, MissingFileReportsError) {
  trace::TraceReader reader(std::string("does_not_exist.trc"));
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.error().empty());
}

}  // namespace
}  // namespace haccrg
