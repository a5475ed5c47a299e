// The verification stream flowing from a main core to its checker core(s):
// SCP, memory-access log entries, then IC + ECP per checking segment — the
// exact order of the paper's Fig. 3.
#pragma once

#include "arch/arch_state.h"
#include "arch/ports.h"
#include "common/types.h"

namespace flexstep::fs {

/// MAL entry kinds. Regular LD/ST package into one entry; LR/SC/AMO package
/// into multiple entries (paper Sec. III-B, "multiple micro-ops").
enum class MemEntryKind : u8 {
  kLoadData,       ///< Load: address (verified) + data (used for replay).
  kStoreAddrData,  ///< Store: address + data (both verified).
  kLrLoad,         ///< LR.D load part.
  kScFlag,         ///< SC.D success flag (0 = success; trusted for replay).
  kScStore,        ///< SC.D store part (present only when the SC succeeded).
  kAmoLoad,        ///< AMO read part (old value; used for replay).
  kAmoStore,       ///< AMO write part (new value; verified).
};

constexpr const char* mem_entry_kind_name(MemEntryKind k) {
  switch (k) {
    case MemEntryKind::kLoadData: return "load";
    case MemEntryKind::kStoreAddrData: return "store";
    case MemEntryKind::kLrLoad: return "lr";
    case MemEntryKind::kScFlag: return "sc-flag";
    case MemEntryKind::kScStore: return "sc-store";
    case MemEntryKind::kAmoLoad: return "amo-load";
    case MemEntryKind::kAmoStore: return "amo-store";
  }
  return "?";
}

struct MemLogEntry {
  MemEntryKind kind = MemEntryKind::kLoadData;
  u8 bytes = 0;
  Addr addr = 0;
  u64 data = 0;
};

/// One queued stream item, materialised: what Channel::item() and pop()
/// return. The channel itself stores items densely (see Slot below); the
/// checkpoint fields of a kMem item and the MAL fields of a checkpoint read
/// as zero.
struct StreamItem {
  enum class Kind : u8 {
    kScp,         ///< Start Register Checkpoint (state.pc = segment entry PC).
    kMem,         ///< One MAL entry.
    kSegmentEnd,  ///< Instruction count + End Register Checkpoint.
  };

  Kind kind = Kind::kScp;
  u64 seq = 0;          ///< Channel-monotonic sequence number.
  Cycle visible_at = 0; ///< Producer push time + channel latency.

  MemLogEntry mem{};            ///< kMem payload.
  arch::ArchState state{};      ///< kScp: SCP; kSegmentEnd: ECP.
  u64 inst_count = 0;           ///< kSegmentEnd: user instructions in segment.
};

/// Dense channel slot: 32 bytes in the arch::MemRecord layout the fused
/// engine stages and records, so publish and replay staging are block copies.
///   kind  — a MemEntryKind for a MAL entry, or kSlotScp / kSlotSegmentEnd;
///   bytes, addr, data — the MAL payload (a checkpoint's state lives in the
///           channel's checkpoint ring; its slot's `data` indexes that ring);
///   cycle — the producer's push cycle (visible_at = cycle + channel latency).
/// The sequence number is implied by queue position.
using Slot = arch::MemRecord;
static_assert(sizeof(Slot) == 32);

inline constexpr u8 kSlotScp = 0x80;
inline constexpr u8 kSlotSegmentEnd = 0x81;

constexpr StreamItem::Kind slot_item_kind(u8 tag) {
  return tag == kSlotScp          ? StreamItem::Kind::kScp
         : tag == kSlotSegmentEnd ? StreamItem::Kind::kSegmentEnd
                                  : StreamItem::Kind::kMem;
}

/// What an SCP / SegmentEnd carries beyond its slot (inst_count: SegmentEnd
/// only).
struct Checkpoint {
  arch::ArchState state{};
  u64 inst_count = 0;
};

}  // namespace flexstep::fs
