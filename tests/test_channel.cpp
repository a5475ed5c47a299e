// DBC channel unit tests: stream ordering, segment readiness, backpressure
// and the DMA-spill rule, fault injection bookkeeping, and the dense storage
// (slot ring + checkpoint side ring) against a plain item-by-item model.
#include <gtest/gtest.h>

#include <bit>
#include <deque>
#include <utility>

#include "flexstep/channel.h"

namespace flexstep::fs {
namespace {

FlexStepConfig small_config() {
  FlexStepConfig c;
  c.channel_capacity = 8;
  c.channel_latency = 4;
  return c;
}

arch::ArchState state_with(u64 marker) {
  arch::ArchState s;
  s.pc = 0x1000;
  s.regs[1] = marker;
  return s;
}

TEST(Channel, FifoOrderPreserved) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 10);
  MemLogEntry e;
  e.kind = MemEntryKind::kLoadData;
  e.addr = 0x100;
  e.data = 42;
  ch.push_mem(e, 11);
  ch.push_segment_end(state_with(2), 1, 12);

  EXPECT_EQ(ch.pop(20).kind, StreamItem::Kind::kScp);
  EXPECT_EQ(ch.pop(21).kind, StreamItem::Kind::kMem);
  EXPECT_EQ(ch.pop(22).kind, StreamItem::Kind::kSegmentEnd);
  EXPECT_TRUE(ch.empty());
}

TEST(Channel, SegmentReadyOnlyAfterSegmentEndVisible) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 100);
  EXPECT_FALSE(ch.segment_ready(1000));  // no SegmentEnd yet
  ch.push_segment_end(state_with(2), 0, 200);
  EXPECT_FALSE(ch.segment_ready(203));   // latency 4: visible at 204
  EXPECT_TRUE(ch.segment_ready(204));
  EXPECT_EQ(ch.next_segment_ready_at(), 204u);
}

TEST(Channel, FrontSegmentIcTracksOldestSegment) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 0);
  ch.push_segment_end(state_with(2), 7, 1);
  ch.push_scp(state_with(3), 2);
  ch.push_segment_end(state_with(4), 13, 3);
  EXPECT_EQ(ch.front_segment_ic(), 7u);
  ch.pop(10);  // SCP
  ch.pop(10);  // SegmentEnd of first segment
  EXPECT_EQ(ch.front_segment_ic(), 13u);
}

TEST(Channel, BackpressureBeyondCapacityWithReadySegment) {
  Channel ch(0, 1, small_config());  // capacity 8
  ch.push_scp(state_with(1), 0);
  ch.push_segment_end(state_with(2), 0, 1);  // complete segment queued
  MemLogEntry e;
  for (int i = 0; i < 6; ++i) ch.push_mem(e, 2);
  EXPECT_EQ(ch.size(), 8u);
  EXPECT_TRUE(ch.producer_can_push(0));   // exactly at capacity
  EXPECT_FALSE(ch.producer_can_push(2));  // over capacity, consumer has work
}

TEST(Channel, DmaSpillWhenConsumerStarved) {
  Channel ch(0, 1, small_config());
  MemLogEntry e;
  // No complete segment queued: pushes must never stall (deadlock freedom).
  ch.push_scp(state_with(1), 0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(ch.producer_can_push(2));
    ch.push_mem(e, 1);
  }
  EXPECT_GT(ch.size(), small_config().channel_capacity);
}

TEST(Channel, ProducerHeadroomTracksSpaceHorizon) {
  Channel ch(0, 1, small_config());  // capacity 8
  MemLogEntry e;
  // Consumer starved (no complete segment): the spill rule makes a stall
  // impossible, so the horizon is unbounded — even past capacity.
  ch.push_scp(state_with(1), 0);
  EXPECT_EQ(ch.producer_headroom_entries(), ~u64{0});
  for (int i = 0; i < 10; ++i) ch.push_mem(e, 1);
  EXPECT_EQ(ch.producer_headroom_entries(), ~u64{0});

  // A complete segment arms backpressure: the horizon is the remaining space.
  ch.push_segment_end(state_with(2), 10, 2);  // occupancy 12 > capacity 8
  EXPECT_EQ(ch.producer_headroom_entries(), 0u);
  while (ch.size() > 5) ch.pop(10);
  EXPECT_EQ(ch.producer_headroom_entries(), 3u);

  // The horizon is exactly the guaranteed-no-stall push count.
  EXPECT_TRUE(ch.producer_can_push(3));
  EXPECT_FALSE(ch.producer_can_push(4));
}

TEST(Channel, DrainedRequiresCloseAndEmpty) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 0);
  EXPECT_FALSE(ch.drained());
  ch.close();
  EXPECT_FALSE(ch.drained());
  ch.pop(5);
  EXPECT_TRUE(ch.drained());
}

TEST(Channel, PopTracksConsumerTimestamp) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 0);
  ch.pop(777);
  EXPECT_EQ(ch.last_pop_cycle(), 777u);
}

TEST(ChannelFault, InjectFlipsExactlyOneBit) {
  Channel ch(0, 1, small_config());
  MemLogEntry e;
  e.kind = MemEntryKind::kStoreAddrData;
  e.addr = 0x1000;
  e.data = 0xABCD;
  e.bytes = 8;
  ch.push_mem(e, 0);

  Rng rng(1);
  const auto fault = ch.inject_random_fault(rng, 50);
  ASSERT_TRUE(fault.has_value());
  EXPECT_TRUE(ch.fault_pending());
  const StreamItem& item = ch.front();
  const bool addr_changed = item.mem.addr != e.addr;
  const bool data_changed = item.mem.data != e.data;
  EXPECT_TRUE(addr_changed ^ data_changed);
  if (addr_changed) {
    EXPECT_EQ(__builtin_popcountll(item.mem.addr ^ e.addr), 1);
  } else {
    EXPECT_EQ(__builtin_popcountll(item.mem.data ^ e.data), 1);
  }
}

TEST(ChannelFault, OnlyOnePendingFault) {
  Channel ch(0, 1, small_config());
  MemLogEntry e;
  ch.push_mem(e, 0);
  Rng rng(2);
  EXPECT_TRUE(ch.inject_random_fault(rng, 1).has_value());
  EXPECT_FALSE(ch.inject_random_fault(rng, 2).has_value());
  ch.clear_fault();
  EXPECT_TRUE(ch.inject_random_fault(rng, 3).has_value());
}

TEST(ChannelFault, InjectOnEmptyQueueFails) {
  Channel ch(0, 1, small_config());
  Rng rng(3);
  EXPECT_FALSE(ch.inject_random_fault(rng, 1).has_value());
}

TEST(ChannelFault, SegmentEndSeqLocatesClosingBoundary) {
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 0);          // seq 0
  MemLogEntry e;
  ch.push_mem(e, 1);                      // seq 1
  ch.push_segment_end(state_with(2), 1, 2);  // seq 2
  Rng rng(4);
  const auto fault = ch.inject_random_fault(rng, 10);
  ASSERT_TRUE(fault.has_value());
  EXPECT_LE(fault->seq, 2u);
  EXPECT_EQ(fault->segment_end_seq, 2u);
}

TEST(ChannelFault, ScpPcCorruptionStaysAligned) {
  Channel ch(0, 1, small_config());
  for (int trial = 0; trial < 64; ++trial) {
    ch.push_scp(state_with(1), 0);
    Rng rng(trial);
    const auto fault = ch.inject_random_fault(rng, 1);
    ASSERT_TRUE(fault.has_value());
    const StreamItem item = ch.pop(2);
    EXPECT_EQ(item.state.pc % 4, 0u);  // PC flips restricted to bits 2..17
    ch.clear_fault();
  }
}

TEST(Channel, OccupancyHighWaterMark) {
  Channel ch(0, 1, small_config());
  MemLogEntry e;
  for (int i = 0; i < 5; ++i) ch.push_mem(e, 0);
  ch.pop(1);
  ch.pop(1);
  EXPECT_EQ(ch.max_occupancy(), 5u);
  EXPECT_EQ(ch.size(), 3u);
}

/// Drives a Channel and a reference deque of materialised items in lockstep.
class ModelledChannel {
 public:
  explicit ModelledChannel(const FlexStepConfig& config)
      : config_(config), ch_(0, 1, config) {}

  Channel& channel() { return ch_; }
  std::deque<StreamItem>& model() { return model_; }

  void scp(u64 marker, Cycle now) {
    ch_.push_scp(state_with(marker), now);
    add(StreamItem::Kind::kScp, now).state = state_with(marker);
  }
  void mem(u64 marker, Cycle now) {
    MemLogEntry e;
    e.kind = marker % 2 == 0 ? MemEntryKind::kLoadData : MemEntryKind::kStoreAddrData;
    e.bytes = 8;
    e.addr = 0x1000 + 8 * marker;
    e.data = marker * 0x9E3779B97F4A7C15ULL;
    ch_.push_mem(e, now);
    add(StreamItem::Kind::kMem, now).mem = e;
  }
  void segment_end(u64 marker, u64 ic, Cycle now) {
    ch_.push_segment_end(state_with(marker), ic, now);
    StreamItem& item = add(StreamItem::Kind::kSegmentEnd, now);
    item.state = state_with(marker);
    item.inst_count = ic;
  }
  void pop(Cycle now) {
    ASSERT_FALSE(model_.empty());
    expect_same(ch_.pop(now), model_.front());
    EXPECT_EQ(ch_.last_popped_seq(), model_.front().seq);
    model_.pop_front();
  }
  void expect_matches() {
    ASSERT_EQ(ch_.size(), model_.size());
    for (std::size_t i = 0; i < model_.size(); ++i) expect_same(ch_.item(i), model_[i]);
  }
  /// seq of the SegmentEnd closing model item `index` (kUnresolvedSegmentEnd
  /// while its segment is open).
  u64 closing_seq(std::size_t index) const {
    for (std::size_t i = index; i < model_.size(); ++i) {
      if (model_[i].kind == StreamItem::Kind::kSegmentEnd) return model_[i].seq;
    }
    return kUnresolvedSegmentEnd;
  }

  static void expect_same(const StreamItem& got, const StreamItem& want) {
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.visible_at, want.visible_at);
    EXPECT_EQ(got.mem.kind, want.mem.kind);
    EXPECT_EQ(got.mem.bytes, want.mem.bytes);
    EXPECT_EQ(got.mem.addr, want.mem.addr);
    EXPECT_EQ(got.mem.data, want.mem.data);
    EXPECT_EQ(got.state, want.state);
    EXPECT_EQ(got.inst_count, want.inst_count);
  }

 private:
  StreamItem& add(StreamItem::Kind kind, Cycle now) {
    StreamItem& item = model_.emplace_back();
    item.kind = kind;
    item.seq = next_seq_++;
    item.visible_at = now + config_.channel_latency;
    return item;
  }

  FlexStepConfig config_;
  Channel ch_;
  std::deque<StreamItem> model_;
  u64 next_seq_ = 0;
};

/// Bits in which two materialised items' payloads differ.
int payload_bit_distance(const StreamItem& a, const StreamItem& b) {
  int bits = __builtin_popcountll(a.mem.addr ^ b.mem.addr) +
             __builtin_popcountll(a.mem.data ^ b.mem.data) +
             __builtin_popcountll(a.state.pc ^ b.state.pc) +
             __builtin_popcountll(a.inst_count ^ b.inst_count);
  for (std::size_t r = 0; r < a.state.regs.size(); ++r) {
    bits += __builtin_popcountll(a.state.regs[r] ^ b.state.regs[r]);
  }
  return bits;
}

TEST(ChannelStorage, SideRingTracksCheckpointsThroughWrapAndSpill) {
  ModelledChannel mc(small_config());  // capacity 8: an 8-slot ring
  Channel& ch = mc.channel();
  Cycle now = 0;
  u64 marker = 1;

  // Wrap-around: whole segments pushed and popped many times over a queue
  // that never holds more than one segment, so every slot and checkpoint
  // position is reused with a different item kind.
  for (int round = 0; round < 20; ++round) {
    mc.scp(marker++, ++now);
    for (int m = 0; m < round % 4; ++m) mc.mem(marker++, ++now);
    mc.segment_end(marker++, round, ++now);
    mc.expect_matches();
    while (!mc.model().empty()) mc.pop(++now);
  }

  // Spill growth: complete segments (many checkpoints) plus an open segment
  // whose MAL entries push occupancy far past channel_capacity.
  for (int seg = 0; seg < 12; ++seg) {
    mc.scp(marker++, ++now);
    mc.mem(marker++, ++now);
    mc.segment_end(marker++, seg, ++now);
  }
  mc.pop(++now);  // leaves a SegmentEnd-led mixture at the front
  mc.scp(marker++, ++now);
  for (int m = 0; m < 40; ++m) mc.mem(marker++, ++now);
  ASSERT_GT(ch.size(), 2 * small_config().channel_capacity);
  mc.expect_matches();

  // Fault-site flips on one item of each kind land in that item only.
  const auto first_of = [&](StreamItem::Kind kind, std::size_t from) {
    for (std::size_t i = from; i < mc.model().size(); ++i) {
      if (mc.model()[i].kind == kind) return i;
    }
    ADD_FAILURE() << "no item of the requested kind";
    return std::size_t{0};
  };
  const std::size_t mem_i = first_of(StreamItem::Kind::kMem, 5);
  const std::size_t scp_i = first_of(StreamItem::Kind::kScp, 5);
  const std::size_t end_i = first_of(StreamItem::Kind::kSegmentEnd, 5);
  ch.flip_entry_bit(mem_i, 70);  // data bit 6
  mc.model()[mem_i].mem.data ^= u64{1} << 6;
  ch.flip_entry_bit(scp_i, 64 + 64 * 2 + 5);  // x3 bit 5
  mc.model()[scp_i].state.regs[3] ^= u64{1} << 5;
  ch.flip_entry_bit(end_i, 64 + 31 * 64 + 1);  // inst_count bit 1
  mc.model()[end_i].inst_count ^= u64{1} << 1;
  mc.expect_matches();

  // Sec. VI-C injections on each kind (closed and still-open segments): one
  // payload bit of that item, attributed to its seq and closing SegmentEnd.
  const std::size_t open_mem_i = mc.model().size() - 3;
  Rng rng(11);
  for (const std::size_t index : {mem_i, scp_i, end_i, open_mem_i}) {
    const StreamItem before = mc.model()[index];
    const auto fault = ch.inject_fault_at(index, rng, now + 100);
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->seq, before.seq);
    EXPECT_EQ(fault->item_kind, before.kind);
    EXPECT_EQ(fault->segment_end_seq, mc.closing_seq(index));
    EXPECT_EQ(fault->injected_at, before.visible_at - small_config().channel_latency);
    const StreamItem after = ch.item(index);
    EXPECT_EQ(payload_bit_distance(before, after), 1);
    mc.model()[index] = after;
    ch.clear_fault();
  }
  EXPECT_EQ(mc.closing_seq(open_mem_i), kUnresolvedSegmentEnd);
  mc.expect_matches();

  // The flipped values come back out of pop() in order, with their seqs.
  mc.segment_end(marker++, 41, ++now);
  while (!mc.model().empty()) mc.pop(++now);
  EXPECT_TRUE(ch.empty());
  EXPECT_EQ(ch.complete_segments_queued(), 0u);
}

TEST(ChannelStorage, SnapshotRoundTripRebuildsSideRing) {
  ModelledChannel mc(small_config());
  Channel& ch = mc.channel();
  Cycle now = 0;
  for (u64 marker = 1; marker < 60; marker += 4) {
    mc.scp(marker, ++now);
    mc.mem(marker + 1, ++now);
    mc.mem(marker + 2, ++now);
    mc.segment_end(marker + 3, 2, ++now);
    mc.pop(++now);
  }
  Channel::Snapshot snap;
  ch.save(snap);
  Channel copy(0, 1, small_config());
  copy.restore(snap);
  ASSERT_EQ(copy.size(), mc.model().size());
  for (std::size_t i = 0; i < mc.model().size(); ++i) {
    ModelledChannel::expect_same(copy.item(i), mc.model()[i]);
  }
  Channel::Snapshot again;
  copy.save(again);
  EXPECT_EQ(again.checkpoints.size(), snap.checkpoints.size());
  EXPECT_EQ(again.next_seq, snap.next_seq);
}

TEST(ChannelStorage, RingSizedToTheBackpressureThreshold) {
  for (const u64 capacity : {u64{8}, u64{6}, u64{2048}}) {
    FlexStepConfig config = small_config();
    config.channel_capacity = capacity;
    Channel ch(0, 1, config);
    EXPECT_EQ(ch.slot_capacity(), std::bit_ceil(capacity));
  }
  // Only a DMA spill past the ring (an open segment while the checker has no
  // complete one) grows it.
  Channel ch(0, 1, small_config());
  ch.push_scp(state_with(1), 1);
  for (int i = 0; i < 7; ++i) ch.push_mem(MemLogEntry{}, 2);
  EXPECT_EQ(ch.slot_capacity(), 8u);
  ch.push_mem(MemLogEntry{}, 3);
  EXPECT_EQ(ch.max_occupancy(), 9u);
  EXPECT_EQ(ch.slot_capacity(), 16u);
}

/// MAL entry number `i` of the window tests.
MemLogEntry window_entry(u64 i) {
  return {i % 2 == 0 ? MemEntryKind::kLoadData : MemEntryKind::kStoreAddrData, 8,
          0x2000 + 8 * i, i * 0x9E3779B97F4A7C15ULL};
}

TEST(ChannelWindow, BackWindowPublishesWhatPushesWould) {
  // Windowed publish and stepwise push_mem build identical queues, also when
  // the window stops at the ring wrap.
  Channel windowed(0, 1, small_config());
  Channel pushed(0, 1, small_config());
  for (Channel* ch : {&windowed, &pushed}) {
    ch->push_scp(state_with(1), 1);
    for (u64 i = 0; i < 5; ++i) ch->push_mem(window_entry(i), 2);
    for (int i = 0; i < 5; ++i) ch->pop(3);  // head at 5: the back at 6
  }
  u64 next = 5;
  Cycle now = 10;
  // 2 slots to the wrap, all used; then 5 to the head, one left unused.
  for (const auto [want, used] : {std::pair<std::size_t, std::size_t>{2, 2}, {5, 4}}) {
    const std::span<Slot> window = windowed.open_back_window(100);
    ASSERT_EQ(window.size(), want);
    for (std::size_t i = 0; i < used; ++i, ++next, ++now) {
      const MemLogEntry e = window_entry(next);
      window[i] = Slot{static_cast<u8>(e.kind), e.bytes, e.addr, e.data, now};
      pushed.push_mem(e, now);
    }
    windowed.publish_back_window(used);
  }
  ASSERT_EQ(windowed.size(), pushed.size());
  EXPECT_EQ(windowed.pushed(), pushed.pushed());
  EXPECT_EQ(windowed.max_occupancy(), pushed.max_occupancy());
  for (std::size_t i = 0; i < pushed.size(); ++i) {
    ModelledChannel::expect_same(windowed.item(i), pushed.item(i));
  }
}

TEST(ChannelWindow, FrontWindowStopsAtTheWrap) {
  Channel ch(0, 1, small_config());
  for (u64 i = 0; i < 6; ++i) ch.push_mem(window_entry(i), i);
  for (int i = 0; i < 6; ++i) ch.pop(10);
  for (u64 i = 6; i < 12; ++i) ch.push_mem(window_entry(i), i);  // slots 6,7,0..3
  std::span<Slot> window = ch.open_front_window(100);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].addr, window_entry(6).addr);
  EXPECT_EQ(window[1].data, window_entry(7).data);
  ch.consume_front(2, 20);
  EXPECT_EQ(ch.last_popped_seq(), 7u);
  EXPECT_EQ(ch.last_pop_cycle(), 20u);
  window = ch.open_front_window(3);
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0].addr, window_entry(8).addr);
  ch.consume_front(0, 21);  // closes the window, retires nothing
  EXPECT_EQ(ch.size(), 4u);
  EXPECT_EQ(ch.last_pop_cycle(), 20u);
}

TEST(ChannelWindow, NothingTouchesTheChannelWhileAWindowIsOpen) {
#ifdef NDEBUG
  GTEST_SKIP() << "FLEX_DCHECK compiles out in release builds";
#else
  // The ring's buffer is fully allocated, so an overwrite under an open
  // window is invisible to ASan: the channel itself must refuse.
  const auto with_back_window = [](auto&& action) {
    Channel ch(0, 1, small_config());
    ch.push_scp(state_with(1), 1);
    (void)ch.open_back_window(4);
    action(ch);
  };
  const auto with_front_window = [](auto&& action) {
    Channel ch(0, 1, small_config());
    for (u64 i = 0; i < 4; ++i) ch.push_mem(window_entry(i), 1);
    (void)ch.open_front_window(4);
    action(ch);
  };
  EXPECT_DEATH(with_back_window([](Channel& ch) { ch.push_mem(window_entry(0), 2); }),
               "window_open_");
  EXPECT_DEATH(with_back_window([](Channel& ch) { ch.push_scp(state_with(2), 2); }),
               "window_open_");
  EXPECT_DEATH(with_back_window([](Channel& ch) { ch.pop(2); }), "window_open_");
  EXPECT_DEATH(with_front_window([](Channel& ch) { ch.pop(2); }), "window_open_");
  EXPECT_DEATH(with_front_window([](Channel& ch) {
                 ch.push_segment_end(state_with(2), 1, 2);
               }),
               "window_open_");
  EXPECT_DEATH(with_front_window([](Channel& ch) {
                 const Slot run[1] = {};
                 ch.push_mem_run(run, 1);
               }),
               "window_open_");
#endif
}

}  // namespace
}  // namespace flexstep::fs
