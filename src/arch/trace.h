// Superinstruction trace cache for the batched execution engine.
//
// Core::run_fast_path still pays a full decode-dispatch iteration per
// instruction (bounds check, fetch-line compare, opcode-range test, loop
// bounds, 70-way switch). Classic threaded-code results (Ertl & Gregg;
// QEMU-style TB chaining) show hot straight-line regions can amortise nearly
// all of that: record the region once, pre-decode it into a dense array of
// superinstructions (operands extracted, immediates pre-extended, static
// stall costs pre-summed), then replay the whole region with one tight loop
// and a single cycle/instret update at the end.
//
// Equivalence contract: executing a trace is bit-identical to stepping the
// same instructions through Core::step() — same registers, memory, cache
// tags/LRU, branch-predictor state, cycle/stall/mispredict accounting. The
// engine guarantees this by construction:
//   * traces contain only fast-path opcodes (the contiguous [kAdd, kSd]
//     prefix: ALU, branches, jumps, plain loads/stores) — nothing that can
//     trap, block, or touch the extension seams;
//   * a trace only dispatches when the quantum has headroom for its
//     worst-case cycle cost and full instruction count, so no interrupt
//     poll, quantum break, or instruction bound can land mid-trace;
//   * all dynamic microarchitectural probes (I-fetch at line boundaries,
//     D-cache per access, BHT/BTB/RAS per control transfer) execute in
//     program order inside the replay loop.
//
// Traces are derived state: flushed on snapshot restore (forks stay
// bit-exact trivially — they never influence outcomes, only host speed) and
// invalidated when any agent stores to a code page they cover. Invalidation
// is deferred to the next lookup boundary because the write may originate
// from inside the executing trace itself.
#pragma once

#include <memory>
#include <vector>

#include "arch/config.h"
#include "arch/memory.h"
#include "arch/program_image.h"
#include "common/check.h"
#include "common/types.h"
#include "isa/instruction.h"

namespace flexstep::arch {

/// Superinstruction kinds, defined through one X-macro so the enum and the
/// threaded-dispatch table in core.cpp can never drift out of order.
///
/// The first block mirrors the fast-path prefix of isa::Opcode
/// value-for-value (static_asserts in trace.cpp pin the anchors), so
/// recording a plain instruction is a cast. Then the pseudo-ops:
///   * kIFetchProbe — I-cache probe for a 64 B fetch-line boundary inside
///     the trace (`target` = the boundary pc). The trace's first line is
///     probed dynamically against last_fetch_line before the replay loop.
///   * kExit — sentinel terminating every trace that does not end in a
///     control transfer; lets the replay loop drop its bound check.
///   * kStaticCost — `imm` cycles of statically known cost at this position
///     (ALU ops writing x0: their only architectural effect is the cycle, so
///     no op is emitted, but the fused segment-stream modes advance a per-op
///     commit clock and need the cost to stay in program order; adjacent
///     elided ops merge into one). The plain replay path skips it — the cost
///     is already summed into base_cost.
/// And the fused superinstructions (one dispatch for a hot two-instruction
/// idiom; both architectural commits still happen, in order):
///   * kLdAddAcc / kLdXorAcc — ld rd,(rs1)imm ; add/xor rs2,rs2,rd
///   * kAndiBne / kAndiBeq   — andi rd,rs1,imm ; bne/beq rd,x0 (terminal;
///                             branch pc = entry + 4*rs2, taken pc = target)
///   * kMulAddi              — mul rd,rs1,rs2 ; addi rd,rd,imm
///   * kAndAdd               — and rd,rs1,rs2 ; add rd,imm-reg,rd
// clang-format off
#define FLEX_TRACE_KIND_LIST(X)                                    \
  X(kAdd) X(kSub) X(kSll) X(kSrl) X(kSra) X(kAnd) X(kOr) X(kXor)   \
  X(kSlt) X(kSltu) X(kMul) X(kMulh) X(kDiv) X(kDivu) X(kRem)       \
  X(kRemu)                                                         \
  X(kAddi) X(kAndi) X(kOri) X(kXori) X(kSlli) X(kSrli) X(kSrai)    \
  X(kSlti) X(kSltiu) X(kLui)                                       \
  X(kBeq) X(kBne) X(kBlt) X(kBge) X(kBltu) X(kBgeu)                \
  X(kJal) X(kJalr)                                                 \
  X(kLb) X(kLbu) X(kLh) X(kLhu) X(kLw) X(kLwu) X(kLd)              \
  X(kSb) X(kSh) X(kSw) X(kSd)                                      \
  X(kIFetchProbe) X(kExit) X(kStaticCost)                          \
  X(kLdAddAcc) X(kLdXorAcc) X(kAndiBne) X(kAndiBeq) X(kMulAddi)    \
  X(kAndAdd)
// clang-format on

/// Generic fused pairs of single-cycle ALU ops (the bulk of any workload's
/// straight-line filler): one dispatch executes both halves. The first
/// half's operands live in the pair op itself, the second half's in the
/// next (payload) slot, which the handler consumes. The list is row-major in
/// (first, second) over a fixed 6-op alphabet, so the recorder computes the
/// kind as base + 6*first + second (static_asserts in trace.cpp pin it).
// clang-format off
#define FLEX_TRACE_ALU_ALPHABET(X) X(Add) X(Sub) X(Xor) X(Or) X(Slli) X(Addi)
#define FLEX_TRACE_PAIR_LIST(X)                                                  \
  X(AddAdd, Add, Add)   X(AddSub, Add, Sub)   X(AddXor, Add, Xor)                \
  X(AddOr, Add, Or)     X(AddSlli, Add, Slli) X(AddAddi, Add, Addi)              \
  X(SubAdd, Sub, Add)   X(SubSub, Sub, Sub)   X(SubXor, Sub, Xor)                \
  X(SubOr, Sub, Or)     X(SubSlli, Sub, Slli) X(SubAddi, Sub, Addi)              \
  X(XorAdd, Xor, Add)   X(XorSub, Xor, Sub)   X(XorXor, Xor, Xor)                \
  X(XorOr, Xor, Or)     X(XorSlli, Xor, Slli) X(XorAddi, Xor, Addi)              \
  X(OrAdd, Or, Add)     X(OrSub, Or, Sub)     X(OrXor, Or, Xor)                  \
  X(OrOr, Or, Or)       X(OrSlli, Or, Slli)   X(OrAddi, Or, Addi)                \
  X(SlliAdd, Slli, Add) X(SlliSub, Slli, Sub) X(SlliXor, Slli, Xor)              \
  X(SlliOr, Slli, Or)   X(SlliSlli, Slli, Slli) X(SlliAddi, Slli, Addi)          \
  X(AddiAdd, Addi, Add) X(AddiSub, Addi, Sub) X(AddiXor, Addi, Xor)              \
  X(AddiOr, Addi, Or)   X(AddiSlli, Addi, Slli) X(AddiAddi, Addi, Addi)
// clang-format on

enum class TraceOpKind : u8 {
#define FLEX_TRACE_ENUM(name) name,
  FLEX_TRACE_KIND_LIST(FLEX_TRACE_ENUM)
#undef FLEX_TRACE_ENUM
#define FLEX_TRACE_PAIR_ENUM(name, first, second) kPair##name,
  FLEX_TRACE_PAIR_LIST(FLEX_TRACE_PAIR_ENUM)
#undef FLEX_TRACE_PAIR_ENUM
};

/// One pre-decoded superinstruction. 16 bytes; meaning of the fields varies
/// by kind (see Core::execute_trace):
///   * ALU-imm / loads / stores: `imm` is the sign-extended immediate
///     (shift amounts pre-masked, LUI pre-shifted).
///   * branches / kJal: `imm` is the instruction index from the trace entry
///     (pc = entry_pc + 4*imm), `target` the precomputed taken/jump target.
///   * kJalr: `imm` is the offset, `target` the instruction's own pc.
///   * kIFetchProbe: `target` is the pc whose line to probe.
struct TraceOp {
  u8 kind = 0;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i32 imm = 0;
  u64 target = 0;
};

/// A recorded straight-line region: at most one control transfer, as the
/// final instruction. Ends early before any slow-path opcode, at the image
/// end, or at the configured length cap. A trace is one allocation of exactly
/// its size (make_trace): this header, then its op_count ops, then its
/// mem_ops memory kinds.
struct Trace {
  Addr entry_pc = 0;
  /// Fall-through continuation: pc after the last instruction. The terminal
  /// control op overrides it dynamically (taken branch / jump target).
  Addr exit_pc = 0;
  /// Fetch line of the last instruction — last_fetch_line after replay.
  Addr exit_line = 0;
  /// Static cycle cost: 1/instruction + multiplier/divider latencies +
  /// load-use bubbles. Dynamic stalls (cache misses, mispredicts, redirect
  /// bubbles) are accumulated during replay and added on top.
  Cycle base_cost = 0;
  /// base_cost + worst-case dynamic stalls: the quantum-headroom bound that
  /// guarantees no cycle limit can expire mid-trace.
  Cycle worst_cost = 0;
  /// Data-memory share of worst_cost: per load the load-use penalty plus a
  /// worst-case d-cache miss, per store a worst-case miss. Replay serves every
  /// access from the log at a fixed FIFO stall instead, so its dispatch
  /// bound is worst_cost - mem_worst_cost + mem_ops * replay_stall — without
  /// this correction, memory-heavy hot traces can out-budget a checker's
  /// whole quantum and never dispatch.
  Cycle mem_worst_cost = 0;
  /// Worst-case pre-commit clock offset (from trace entry) at the LAST memory
  /// op's replay compare stamp, counting prior memory ops at zero — the
  /// dispatcher adds (mem_ops - 1) * replay_stall for them. This bounds where
  /// the final channel pop of the trace can land, which is the only part of a
  /// replayed trace the scheduler can observe: when the engine has promised a
  /// bulk-consume horizon, a trace whose pops all fit below the quantum bound
  /// may dispatch even though its tail (trailing ALU / probes / terminal)
  /// would overrun the bound. Meaningless when mem_ops == 0.
  Cycle last_pop_worst = 0;
  u64 first_page = 0;  ///< Code pages covered (write-invalidation range).
  u64 last_page = 0;
  u32 inst_count = 0;
  /// Plain loads + stores in the trace; mem_kinds() gives their kinds in
  /// program order (0 = load — including the load half of
  /// kLdAddAcc/kLdXorAcc — 1 = store). The fused segment-stream modes gate
  /// dispatch on these: a trace only replays when the cursor has room for
  /// every record (producer) or the cursor's next records match kind-for-kind
  /// (consumer), so no mid-trace bail-out can be needed.
  u32 mem_ops = 0;
  u32 op_count = 0;  ///< Includes pseudo-ops; op_count >= inst_count.

  const TraceOp* ops() const { return reinterpret_cast<const TraceOp*>(this + 1); }
  const u8* mem_kinds() const { return reinterpret_cast<const u8*>(ops() + op_count); }
};
static_assert(sizeof(Trace) % alignof(TraceOp) == 0, "ops follow the header");

/// Frees a trace together with the arrays behind its header.
struct TraceDeleter {
  void operator()(Trace* trace) const;
};
using TracePtr = std::unique_ptr<Trace, TraceDeleter>;

/// Allocate a trace: `header` with `ops` and `mem_kinds` behind it.
TracePtr make_trace(const Trace& header, const std::vector<TraceOp>& ops,
                    const std::vector<u8>& mem_kinds);

/// Worst-case/static cost parameters captured from the owning core's
/// configuration at construction (used to precompute trace cost bounds).
struct TraceCostModel {
  Cycle worst_miss = 0;  ///< Upper bound on one cache-probe stall (L2 + DRAM).
  Cycle load_use = 0;
  Cycle mispredict = 0;
};

/// Per-core trace store: one exactly indexed table per code image the core
/// has entered, created on first entry. Entry i of an image's table belongs
/// to pc = base + 4*i and holds that pc's trace and heat counter, so no two
/// pcs — in one image or in two — ever share an entry, and a core's tables
/// cost kEntryBytes per instruction of the images it runs. The heat counter
/// keeps traces to genuinely hot block entries.
class TraceCache final : public CodeWriteListener {
 public:
  struct Stats {
    u64 dispatches = 0;       ///< Traces replayed.
    u64 insts_from_traces = 0;
    u64 recorded = 0;
    u64 refused = 0;          ///< Too-short blocks marked never-record.
    u64 seeded = 0;           ///< Traces installed by static seeding.
    u64 heat_misses = 0;      ///< Entry misses spent warming heat counters.
    u64 code_write_flushes = 0;  ///< Traces dropped by stores to code pages.
    u64 full_flushes = 0;        ///< flush() calls (snapshot restore).
  };

  /// One image's table, indexed by (pc - image.base) / 4.
  struct Table {
    explicit Table(const LoadedImage& img)
        : image(&img), traces(img.code.size()), heat(img.code.size()) {}
    const LoadedImage* image;
    std::vector<TracePtr> traces;
    std::vector<u8> heat;  ///< Entry visits so far (kRefused: never record).
  };
  static constexpr std::size_t kEntryBytes = sizeof(TracePtr) + sizeof(u8);

  TraceCache(const TraceConfig& config, Memory& memory, const TraceCostModel& cost);
  ~TraceCache();

  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  /// The table of `image`, created on first use. The reference stays valid
  /// until flush(); the batched engine hoists it next to the image's fetch
  /// window.
  Table& table(const LoadedImage& image) {
    if (last_ != nullptr && last_->image == &image) return *last_;
    return find_or_create(image);
  }

  /// Trace starting exactly at `pc` (inside the table's image), or nullptr.
  /// Processes any pending write-invalidation first — callers must therefore
  /// not hold a Trace pointer across lookups.
  const Trace* lookup(Table& table, Addr pc) {
    if (pending_invalidation_) [[unlikely]] process_pending_invalidation();
    FLEX_DCHECK(table.image->contains(pc));
    const Trace* trace = table.traces[(pc - table.image->base) / 4].get();
    // A misaligned pc shares its entry with the aligned one below it.
    return trace != nullptr && trace->entry_pc == pc ? trace : nullptr;
  }

  /// Lookup miss at a block entry: bump the heat counter and, at threshold,
  /// record the region from the pre-decoded image stream. Returns the fresh
  /// trace when one was recorded.
  const Trace* notice_entry(Table& table, Addr pc);

  /// Statically-seeded recording: install a trace at `pc` immediately,
  /// bypassing the heat counter (the static analysis already declared the
  /// entry hot). Returns true when `pc` is covered afterwards (freshly
  /// recorded or already present). A refused seed (region too short) marks
  /// the heat entry never-record, exactly like a refused hot entry. Seeds are
  /// host-speed only — they never change simulated outcomes.
  bool seed(Table& table, Addr pc);

  /// Drop every table (snapshot restore: traces are derived state).
  void flush();

  void count_dispatch(u32 insts) {
    ++stats_.dispatches;
    stats_.insts_from_traces += insts;
  }

  const Stats& stats() const { return stats_; }
  /// Images with a table, and the host bytes of all their entries.
  std::size_t table_count() const { return tables_.size(); }
  std::size_t table_bytes() const;

  // CodeWriteListener: deferred — the store may run inside a live trace.
  void on_code_page_written(u64 page_id) override;

 private:
  static constexpr u8 kRefused = 0xFF;

  Table& find_or_create(const LoadedImage& image);
  /// Record and install the trace at `pc`, entry `index` of `table`; on
  /// refusal mark the entry never-record.
  const Trace* install(Table& table, std::size_t index);
  /// Record the region at `pc` into `out` plus the ops_ / mem_kinds_ scratch.
  bool record(Addr pc, const isa::Instruction* code, Addr base, Addr end, Trace& out);
  void process_pending_invalidation();

  TraceConfig config_;
  Memory& memory_;
  TraceCostModel cost_;
  std::vector<std::unique_ptr<Table>> tables_;
  Table* last_ = nullptr;  ///< Most recently requested table.
  bool pending_invalidation_ = false;
  std::vector<u64> dirty_pages_;
  std::vector<TraceOp> ops_;   ///< Recording scratch, copied into the trace.
  std::vector<u8> mem_kinds_;  ///< Recording scratch, copied into the trace.
  Stats stats_;
};

/// Would the trace recorder fuse `first`+`second` into one superinstruction
/// if they appeared adjacently inside a recorded region? Mirrors the peephole
/// in TraceCache::record (named idioms + the generic ALU-pair alphabet),
/// ignoring position-dependent constraints (fetch-line split, branch-index
/// width). Used by the static lint to flag jumps that enter the second half
/// of a fusible pair.
bool trace_pair_fusible(const isa::Instruction& first, const isa::Instruction& second);

}  // namespace flexstep::arch
