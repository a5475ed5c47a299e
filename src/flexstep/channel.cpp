#include "flexstep/channel.h"

#include <algorithm>

#include "common/archive.h"
#include "common/check.h"

namespace flexstep::fs {

void Channel::Snapshot::serialize(io::ArchiveWriter& ar) const {
  static const Checkpoint kNoCheckpoint{};
  ar.put_varint(main_id);
  ar.put_varint(checker_id);
  ar.put_varint(items.size());
  std::size_t next_checkpoint = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Slot& slot = items[i];
    const bool is_mem = slot.kind < kSlotScp;
    const Checkpoint& ckpt = is_mem ? kNoCheckpoint : checkpoints[next_checkpoint++];
    ar.put_u8(static_cast<u8>(slot_item_kind(slot.kind)));
    ar.put_varint(next_seq - items.size() + i);
    ar.put_varint(slot.cycle);
    ar.put_u8(is_mem ? slot.kind : 0);
    ar.put_u8(slot.bytes);
    ar.put_u64(slot.addr);
    ar.put_u64(slot.data);
    ar.put_u64(ckpt.state.pc);
    for (u64 r : ckpt.state.regs) ar.put_u64(r);
    ar.put_varint(ckpt.inst_count);
  }
  ar.put_varint(segments.size());
  for (const SegmentMeta& seg : segments) {
    ar.put_varint(seg.inst_count);
    ar.put_varint(seg.ready_at);
    ar.put_varint(seg.end_seq);
  }
  ar.put_varint(next_seq);
  ar.put_varint(last_popped_seq);
  ar.put_varint(last_pop_cycle);
  ar.put_bool(closed);
  ar.put_varint(max_occupancy);
  ar.put_varint(backpressure_events);
  ar.put_bool(fault.has_value());
  if (fault.has_value()) {
    ar.put_varint(fault->seq);
    ar.put_u64(fault->segment_end_seq);  // kUnresolvedSegmentEnd = ~0
    ar.put_varint(fault->injected_at);
    ar.put_u8(static_cast<u8>(fault->item_kind));
    ar.put_u8(fault->bit);
  }
}

void Channel::Snapshot::deserialize(io::ArchiveReader& ar) {
  items.clear();
  checkpoints.clear();
  segments.clear();
  fault.reset();
  main_id = static_cast<CoreId>(ar.take_varint());
  checker_id = static_cast<CoreId>(ar.take_varint());
  const u64 item_count = ar.take_count(1 + 1 + 1 + 1 + 16 + 8 + 256 + 1);
  u64 first_seq = 0;
  bool seqs_contiguous = true;
  for (u64 i = 0; ar.ok() && i < item_count; ++i) {
    const u8 kind = ar.take_u8();
    if (ar.ok() && kind > static_cast<u8>(StreamItem::Kind::kSegmentEnd)) {
      ar.fail(io::ArchiveStatus::kMalformed, "stream item kind out of domain");
    }
    const u64 seq = ar.take_varint();
    if (i == 0) first_seq = seq;
    seqs_contiguous = seqs_contiguous && seq == first_seq + i;
    Slot slot;
    slot.cycle = ar.take_varint();
    const u8 mem_kind = ar.take_u8();
    if (ar.ok() && mem_kind > static_cast<u8>(MemEntryKind::kAmoStore)) {
      ar.fail(io::ArchiveStatus::kMalformed, "MAL entry kind out of domain");
    }
    slot.bytes = ar.take_u8();
    slot.addr = ar.take_u64();
    slot.data = ar.take_u64();
    Checkpoint ckpt;
    ckpt.state.pc = ar.take_u64();
    for (u64& r : ckpt.state.regs) r = ar.take_u64();
    ckpt.inst_count = ar.take_varint();
    if (kind == static_cast<u8>(StreamItem::Kind::kMem)) {
      slot.kind = mem_kind;
    } else {
      // A checkpoint's MAL fields are zero on the wire and not kept.
      const u8 tag =
          kind == static_cast<u8>(StreamItem::Kind::kScp) ? kSlotScp : kSlotSegmentEnd;
      slot = Slot{tag, 0, 0, 0, slot.cycle};
      checkpoints.push_back(ckpt);
    }
    items.push_back(slot);
  }
  const u64 seg_count = ar.take_count(3);
  for (u64 i = 0; ar.ok() && i < seg_count; ++i) {
    SegmentMeta seg;
    seg.inst_count = ar.take_varint();
    seg.ready_at = ar.take_varint();
    seg.end_seq = ar.take_varint();
    segments.push_back(seg);
  }
  next_seq = ar.take_varint();
  // Item seqs are implied by queue position: they must run contiguously up
  // to next_seq - 1.
  if (ar.ok() && !items.empty() &&
      (!seqs_contiguous || next_seq < items.size() ||
       first_seq != next_seq - items.size())) {
    ar.fail(io::ArchiveStatus::kMalformed, "stream item seqs not contiguous up to next_seq");
  }
  last_popped_seq = ar.take_varint();
  last_pop_cycle = ar.take_varint();
  closed = ar.take_bool();
  max_occupancy = ar.take_varint();
  backpressure_events = ar.take_varint();
  if (ar.take_bool()) {
    InjectedFault f;
    f.seq = ar.take_varint();
    f.segment_end_seq = ar.take_u64();
    f.injected_at = ar.take_varint();
    const u8 kind = ar.take_u8();
    if (ar.ok() && kind > static_cast<u8>(StreamItem::Kind::kSegmentEnd)) {
      ar.fail(io::ArchiveStatus::kMalformed, "injected-fault kind out of domain");
    }
    f.item_kind = static_cast<StreamItem::Kind>(kind);
    f.bit = ar.take_u8();
    if (ar.ok()) fault = f;
  }
}

bool Channel::producer_can_push(u32 entries) const {
  if (slots_.size() + entries <= config_.channel_capacity) return true;
  // DMA-spill rule: while the checker has no complete segment to chew on,
  // stalling the producer could never be relieved — spill instead.
  return segments_.empty();
}

u64 Channel::producer_headroom_entries() const {
  if (segments_.empty()) return ~u64{0};
  const u64 occupancy = slots_.size();
  return occupancy < config_.channel_capacity ? config_.channel_capacity - occupancy
                                              : 0;
}

u64 Channel::push_checkpoint(u8 tag, const arch::ArchState& state, u64 inst_count,
                             Cycle now) {
  FLEX_CHECK_MSG(!closed_, "push on closed channel");
  FLEX_DCHECK(!window_open_);
  slots_.push_back(Slot{tag, 0, 0, checkpoints_popped_ + checkpoints_.size(), now});
  checkpoints_.push_back({state, inst_count});
  max_occupancy_ = std::max<u64>(max_occupancy_, slots_.size());
  return next_seq_++;
}

void Channel::push_scp(const arch::ArchState& scp, Cycle now) {
  push_checkpoint(kSlotScp, scp, 0, now);
}

void Channel::push_segment_end(const arch::ArchState& ecp, u64 inst_count, Cycle now) {
  const u64 seq = push_checkpoint(kSlotSegmentEnd, ecp, inst_count, now);
  segments_.push_back({inst_count, now + config_.channel_latency, seq});
  // A fault injected into a then-open segment resolves against this boundary.
  if (fault_.has_value() && fault_->segment_end_seq == kUnresolvedSegmentEnd) {
    fault_->segment_end_seq = seq;
  }
}

bool Channel::segment_ready(Cycle now) const {
  return !segments_.empty() && segments_.front().ready_at <= now;
}

Cycle Channel::next_segment_ready_at() const {
  return segments_.empty() ? kNever : segments_.front().ready_at;
}

u64 Channel::front_segment_ic() const {
  FLEX_CHECK(!segments_.empty());
  return segments_.front().inst_count;
}

StreamItem Channel::item(std::size_t index) const {
  const Slot& slot = slots_[index];
  StreamItem out;
  out.kind = slot_item_kind(slot.kind);
  out.seq = seq_at(index);
  out.visible_at = slot.cycle + config_.channel_latency;
  if (out.kind == StreamItem::Kind::kMem) {
    out.mem = mem_at(index);
  } else {
    const Checkpoint& ckpt = checkpoint_at(index);
    out.state = ckpt.state;
    out.inst_count = ckpt.inst_count;
  }
  return out;
}

StreamItem::Kind Channel::pop_front(Cycle now) {
  FLEX_CHECK_MSG(!slots_.empty(), "pop on empty channel");
  FLEX_DCHECK(!window_open_);
  const u8 tag = slots_.front().kind;
  last_popped_seq_ = seq_at(0);
  last_pop_cycle_ = now;
  slots_.pop_front();
  if (tag >= kSlotScp) {
    checkpoints_.pop_front();
    ++checkpoints_popped_;
    if (tag == kSlotSegmentEnd) {
      FLEX_CHECK(!segments_.empty());
      segments_.pop_front();
    }
  }
  return slot_item_kind(tag);
}

void Channel::consume_front(u64 count, Cycle now) {
  FLEX_DCHECK(window_open_);
  window_open_ = false;
  FLEX_CHECK_MSG(count <= slots_.size(), "consume_front past queue end");
  if (count == 0) return;
  for (u64 i = 0; i < count; ++i) FLEX_CHECK(slots_[i].kind < kSlotScp);
  last_popped_seq_ = seq_at(count - 1);
  last_pop_cycle_ = now;
  slots_.pop_front(count);
}

std::optional<InjectedFault> Channel::corrupt_item(std::size_t index, Rng& rng,
                                                   Cycle now) {
  InjectedFault fault;
  fault.seq = seq_at(index);
  fault.injected_at = now;
  fault.item_kind = kind_at(index);

  switch (fault.item_kind) {
    case StreamItem::Kind::kMem: {
      Slot& slot = slots_[index];
      // Corrupt address (low 32 bits — stays in the plausible address range)
      // or data with equal probability.
      if (rng.next_bool(0.5)) {
        fault.bit = static_cast<u8>(rng.next_below(32));
        slot.addr ^= u64{1} << fault.bit;
      } else {
        const u32 width_bits = slot.bytes == 0 ? 64 : slot.bytes * 8;
        fault.bit = static_cast<u8>(rng.next_below(width_bits));
        slot.data ^= u64{1} << fault.bit;
      }
      break;
    }
    case StreamItem::Kind::kScp:
    case StreamItem::Kind::kSegmentEnd: {
      arch::ArchState& state = checkpoints_[checkpoint_index(index)].state;
      // Corrupt one architectural word: a register (x1..x31) or the PC.
      const u64 which = rng.next_below(32);
      if (which == 0) {
        // PC corruption restricted to bits 2..17: a misaligned or wildly
        // out-of-range PC would be caught trivially by the fetch stage.
        fault.bit = static_cast<u8>(2 + rng.next_below(16));
        state.pc ^= u64{1} << fault.bit;
      } else {
        fault.bit = static_cast<u8>(rng.next_below(64));
        state.regs[which] ^= u64{1} << fault.bit;
      }
      break;
    }
  }

  // Locate the SegmentEnd that closes the segment containing this item (for
  // undetected-fault resolution by the campaign driver). When the segment is
  // still open, push_segment_end() fills it in later.
  fault.segment_end_seq = kUnresolvedSegmentEnd;
  for (std::size_t i = index; i < slots_.size(); ++i) {
    if (slots_[i].kind == kSlotSegmentEnd) {
      fault.segment_end_seq = seq_at(i);
      break;
    }
  }
  fault_ = fault;
  return fault;
}

u64 Channel::entry_bit_count(std::size_t index) const {
  FLEX_CHECK(index < slots_.size());
  switch (kind_at(index)) {
    case StreamItem::Kind::kMem:
      return 128;  // addr | data
    case StreamItem::Kind::kScp:
      return 64 + 31 * 64;  // pc | x1..x31 (x0 is architecturally zero)
    case StreamItem::Kind::kSegmentEnd:
      return 64 + 31 * 64 + 64;  // pc | x1..x31 | inst_count
  }
  return 0;
}

void Channel::flip_entry_bit(std::size_t index, u64 bit) {
  FLEX_CHECK(bit < entry_bit_count(index));
  const StreamItem::Kind kind = kind_at(index);
  if (kind == StreamItem::Kind::kMem) {
    Slot& slot = slots_[index];
    if (bit < 64) {
      slot.addr ^= u64{1} << bit;
    } else {
      slot.data ^= u64{1} << (bit - 64);
    }
    return;
  }
  Checkpoint& ckpt = checkpoints_[checkpoint_index(index)];
  if (bit >= 64 + 31 * 64) {
    ckpt.inst_count ^= u64{1} << (bit - (64 + 31 * 64));  // SegmentEnd only
  } else if (bit < 64) {
    ckpt.state.pc ^= u64{1} << bit;
  } else {
    ckpt.state.regs[1 + (bit - 64) / 64] ^= u64{1} << (bit % 64);
  }
}

void Channel::flip_segment_meta_bit(std::size_t index, u64 bit) {
  FLEX_CHECK(index < segments_.size());
  FLEX_CHECK(bit < kSegmentMetaBits);
  SegmentMeta& meta = segments_[index];
  if (bit < 64) {
    meta.inst_count ^= u64{1} << bit;
  } else if (bit < 128) {
    meta.ready_at ^= u64{1} << (bit - 64);
  } else {
    meta.end_seq ^= u64{1} << (bit - 128);
  }
}

void Channel::save(Snapshot& out) const {
  out.main_id = main_id_;
  out.checker_id = checker_id_;
  out.items.resize(slots_.size());
  slots_.copy_out(0, slots_.size(), out.items.data());
  for (Slot& slot : out.items) {
    slot.cycle += config_.channel_latency;
    if (slot.kind >= kSlotScp) slot = Slot{slot.kind, 0, 0, 0, slot.cycle};
  }
  out.checkpoints.resize(checkpoints_.size());
  checkpoints_.copy_out(0, checkpoints_.size(), out.checkpoints.data());
  out.segments.resize(segments_.size());
  segments_.copy_out(0, segments_.size(), out.segments.data());
  out.next_seq = next_seq_;
  out.last_popped_seq = last_popped_seq_;
  out.last_pop_cycle = last_pop_cycle_;
  out.closed = closed_;
  out.max_occupancy = max_occupancy_;
  out.backpressure_events = backpressure_events_;
  out.fault = fault_;
}

void Channel::restore(const Snapshot& snapshot) {
  FLEX_CHECK_MSG(snapshot.main_id == main_id_ && snapshot.checker_id == checker_id_,
                 "channel snapshot endpoint mismatch");
  FLEX_DCHECK(!window_open_);
  slots_.clear();
  checkpoints_.clear();
  checkpoints_popped_ = 0;
  u64 ordinal = 0;
  for (Slot slot : snapshot.items) {
    slot.cycle -= config_.channel_latency;
    if (slot.kind >= kSlotScp) slot.data = ordinal++;
    slots_.push_back(slot);
  }
  FLEX_CHECK_MSG(ordinal == snapshot.checkpoints.size(),
                 "channel snapshot checkpoint count mismatch");
  checkpoints_.append(snapshot.checkpoints.data(), snapshot.checkpoints.size());
  segments_.clear();
  segments_.append(snapshot.segments.data(), snapshot.segments.size());
  next_seq_ = snapshot.next_seq;
  last_popped_seq_ = snapshot.last_popped_seq;
  last_pop_cycle_ = snapshot.last_pop_cycle;
  closed_ = snapshot.closed;
  max_occupancy_ = snapshot.max_occupancy;
  backpressure_events_ = snapshot.backpressure_events;
  fault_ = snapshot.fault;
}

std::optional<InjectedFault> Channel::inject_random_fault(Rng& rng, Cycle now) {
  if (slots_.empty() || fault_.has_value()) return std::nullopt;
  const auto index = static_cast<std::size_t>(rng.next_below(slots_.size()));
  return corrupt_item(index, rng, now);
}

std::optional<InjectedFault> Channel::inject_fault_at(std::size_t index, Rng& rng,
                                                      Cycle now) {
  if (index >= slots_.size() || fault_.has_value()) return std::nullopt;
  return corrupt_item(index, rng, std::min(now, slots_[index].cycle));
}

std::optional<InjectedFault> Channel::inject_fault_at_tail(Rng& rng, Cycle now) {
  if (slots_.empty() || fault_.has_value()) return std::nullopt;
  // The corruption physically happens in the forwarding path, i.e. when the
  // producer pushed the item — not at the campaign's (later) wall time.
  const std::size_t tail = slots_.size() - 1;
  return corrupt_item(tail, rng, std::min(now, slots_[tail].cycle));
}

}  // namespace flexstep::fs
