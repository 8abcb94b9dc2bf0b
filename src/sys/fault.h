// Deterministic fault injection for the serving stack.
//
// A FaultInjector is a process-wide registry of named fault points — the
// places where the cache layer can genuinely misbehave in production — that
// subsystems poll at their boundaries:
//
//   encode   engine.cpp      a module/scaffold forward pass fails
//                            (throws pc::TransientError out of the encode)
//   link     batch.cpp       a simulated host-link transfer is lost and
//                            must be resent (the lane retries the stall)
//   corrupt  serialize.cpp   a persisted record fails its checksum on read
//                            (exercises the load recovery policy)
//   evict    shared store    store pressure spuriously evicts an unpinned
//                            resident entry (forces the thrash-reencode
//                            path at serve time)
//   stall    batch.cpp       a lane freezes for stall_ms before admitting
//                            (straggler; stresses deadlines and shedding)
//   shardkill shard.cpp      a whole shard (Server + store) dies; the
//                            ShardRouter fails affected requests over to a
//                            replica (docs/INTERNALS.md §14)
//   diskread  shared store   a disk-tier spill file fails to read back; the
//                            fault-in drops the record and the caller
//                            re-encodes (docs/INTERNALS.md §15)
//   diskwrite shared store   a disk-tier spill write fails; the victim is
//                            destroy-evicted instead of spilled
//
// Faults are drawn from a seeded counter-based hash: the decision for the
// N-th poll of a point is a pure function of (seed, point, N), so a given
// spec replays the same fault schedule per point regardless of which thread
// lands on which draw. Configure via the PC_FAULTS environment variable or
// configure(); the grammar is
//
//   PC_FAULTS = entry ("," entry)*
//   entry     = "seed=" uint64                      (default 1)
//             | point "=" rate ["x" count] [":" ms]
//   point     = "encode" | "link" | "corrupt" | "evict" | "stall"
//             | "shardkill" | "diskread" | "diskwrite"
//   rate      = probability in [0,1]
//   count     = cap on injections at this point (0 / absent = unlimited)
//   ms        = stall duration for "stall" (default 20)
//
// e.g. PC_FAULTS="seed=7,encode=0.2,link=0.1x3,stall=0.05:25".
//
// Cost model mirrors the PC_SPAN gate (obs/trace.h): with no spec active,
// should_fail() is one relaxed atomic load. configure()/disable() must not
// race with active fault polls — reconfigure between requests (tests do it
// while the server is idle).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace pc {

enum class FaultPoint : int {
  kEncode = 0,
  kLink,
  kCorrupt,
  kEvict,
  kStall,
  kShardKill,
  kDiskRead,
  kDiskWrite,
};
inline constexpr int kNumFaultPoints = 8;

const char* fault_point_name(FaultPoint p);

class FaultInjector {
 public:
  // The process-wide injector. First use reads PC_FAULTS from the
  // environment (empty/unset = disabled).
  static FaultInjector& global();

  // Parses and arms a spec (see the grammar above); throws pc::ConfigError
  // on a malformed spec — unknown points, non-numeric or trailing-garbage
  // rates, bad xN/:ms suffixes — so a typo'd chaos spec fails loudly at
  // startup instead of silently running clean. An empty spec disables.
  // Resets draw/injection counts.
  void configure(const std::string& spec);

  // Disarms all fault points (counts are preserved for inspection).
  void disable();

  bool enabled() const {
    return armed_.load(std::memory_order_relaxed);
  }

  // The active spec string ("" when disabled) — recorded in bench
  // provenance so faulted and clean numbers can never silently mix.
  std::string spec() const;

  // Polls a fault point: one relaxed load and false when disarmed; when
  // armed, draws the point's next decision from the seeded schedule.
  bool should_fail(FaultPoint p) {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return roll(p);
  }

  // Stall duration configured for `p` (meaningful for kStall).
  double stall_ms(FaultPoint p) const;

  // Injection accounting (for tests and chaos reports).
  uint64_t injected(FaultPoint p) const;
  uint64_t injected_total() const;

 private:
  FaultInjector();

  struct Rule {
    double rate = 0;         // injection probability per poll
    uint64_t max_count = 0;  // 0 = unlimited
    double stall_ms = 20.0;
  };

  bool roll(FaultPoint p);

  // armed_ is the release-published gate over rules_/seed_: configure()
  // writes them, then stores armed_ with release; roll() re-loads it with
  // acquire before touching the rules.
  std::atomic<bool> armed_{false};
  std::array<Rule, kNumFaultPoints> rules_{};
  uint64_t seed_ = 1;
  std::array<std::atomic<uint64_t>, kNumFaultPoints> draws_{};
  std::array<std::atomic<uint64_t>, kNumFaultPoints> injected_{};
  std::string spec_;
};

}  // namespace pc
