// The engine's module registry — device and host tiers, plus an optional
// disk tier — safe to share across threads.
//
// Encoded modules are placed in device memory (fast, scarce) while it has
// room, spilling to host memory (abundant, but costs a transfer at serve
// time) — the memory trade-off of paper §4.1. Eviction takes the store-wide
// least-recently-used unpinned entry of a tier; the paper leaves
// replacement policy to future serving systems (§6), so the policy is
// deliberately simple and lives in this one class.
//
// There is one store implementation for every configuration. A standalone
// engine owns an instance sized by its EngineConfig (no disk tier); a
// serving fleet shares one instance, so N engines hold each encoded module
// once and a module encoded by any worker is a hit for all of them — the
// reuse the paper's TTFT claim rests on (§3.4, §5).
//
// Concurrency design:
//
//   * One lock. The entries, the tier accounting, the spill records and the
//     in-flight encodes sit behind one std::shared_mutex. Mutations (insert,
//     evict, pin, recency updates) take it exclusively; const queries
//     (contains, pin_count, size, usage, for_each) take it shared. Nothing
//     slow runs under it — encodes, disk reads and row copies happen
//     outside (below) — so a serve holds it for a few map operations. Each
//     configured capacity holds exactly, for the whole store.
//
//   * Shared-ownership reads. Lookups return a ModuleRef — a
//     shared_ptr-backed handle acquired under the lock — instead of a raw
//     pointer. The expensive part of a hit (copying or borrowing module
//     rows into a request cache) runs entirely outside the lock, and a ref
//     keeps its payload alive even if another worker evicts or replaces the
//     entry meanwhile. A cache that borrows module rows keeps the payload's
//     shared owner for as long as it holds them (kv/kv_cache.h), so
//     borrowed rows can never dangle, and eviction never waits on a
//     request: an evicted payload a request still reads is freed with the
//     request's cache, as a copy would be.
//
//   * Reference-counted pins. pin()/unpin() count references instead of
//     setting a flag: the entry stays ineligible for eviction until the
//     *last* pin is returned. Pins are residency policy for whoever owns a
//     key (the shard router's owners, PromptCacheEngine::pin_module), never
//     a request's lifetime: refs make eviction safe; pins make it not
//     happen.
//
//   * Single-flight encoding. ensure() runs the encode callback at most
//     once per missing key across all threads: the first caller becomes the
//     leader and encodes outside the lock while later callers block on a
//     per-key flight; they wake holding a ref to the leader's result. A
//     failed leader wakes the waiters and the next caller retries.
//
//   * Disk tier (docs/INTERNALS.md §15). With a DiskTierConfig the store
//     gains a third, cold tier: when make_room runs out of unpinned RAM
//     victims, the coldest entries serialize to per-module spill files
//     (core/serialize.h's checksummed record format, written crash-
//     atomically via tmp+rename) instead of being destroyed. find()/
//     ensure() transparently fault spilled entries back in — the disk read
//     runs outside the lock under the same per-key single-flight Flight
//     that deduplicates encodes, and the faulted payload is placed
//     host-first so its bytes are charged through the serving LinkModel
//     like any host-resident module. prefetch() is the async pipeline's
//     entry point (sys/prefetch.h): it faults a key in ahead of admission
//     and tags the entry so the first serve that lands on it counts as a
//     prefetch hit. Spill round-trips are byte-exact (serialize round-trip
//     is), so RAM-capped tiered serving stays bitwise-identical.
//
// Stats live in registry cells (obs/metrics.h): every store owns cells in
// the pc_store_* families, so a Prometheus scrape sees the whole process's
// cache behavior under one naming scheme while stats() keeps the
// per-instance view. One logical lookup (find() or ensure()) counts exactly
// one hit or one miss. The disk tier adds pc_store_disk_* families (spills,
// faults, prefetch hits/misses, evictions, failures, stall time, spilled
// bytes) local to each store instance.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/encoded_module.h"
#include "obs/metrics.h"
#include "sys/memory_tier.h"

namespace pc {

// Snapshot view of one store's counters, read from its registry cells.
struct ModuleStoreStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;   // dropped entirely (re-encode on next use)
  uint64_t demotions = 0;   // moved device -> host to make room
  uint64_t promotions = 0;  // moved host -> device (prefetch / warm-up)
};

// The registry cells behind ModuleStoreStats and the resident-bytes gauges.
struct ModuleStoreCells {
  ModuleStoreCells();

  obs::Counter hits;
  obs::Counter misses;
  obs::Counter insertions;
  obs::Counter evictions;
  obs::Counter demotions;
  obs::Counter promotions;
  obs::Gauge resident_bytes;   // pc_store_resident_bytes
  // resident_bytes split by payload format: q8 counts Q8_0 modules, q4
  // counts Q4_0 modules, fp32 counts fp32 modules.
  obs::Gauge resident_bytes_fp32;  // pc_store_resident_bytes_fp32
  obs::Gauge resident_bytes_q8;    // pc_store_resident_bytes_q8
  obs::Gauge resident_bytes_q4;    // pc_store_resident_bytes_q4
  obs::Gauge pinned_entries;   // pc_store_pinned_entries

  ModuleStoreStats snapshot() const {
    ModuleStoreStats out;
    out.hits = hits.value();
    out.misses = misses.value();
    out.insertions = insertions.value();
    out.evictions = evictions.value();
    out.demotions = demotions.value();
    out.promotions = promotions.value();
    return out;
  }
};

// Configuration for the store's disk spill tier (docs/INTERNALS.md §15).
struct DiskTierConfig {
  bool enabled = false;
  // Spill directory; "" uses the system temp directory. Each store creates
  // (and removes on destruction) a unique subdirectory underneath it.
  std::string dir;
  // Disk budget in bytes; 0 means unbounded. When full, the coldest
  // spilled records are destroyed.
  size_t capacity_bytes = 0;
  // Simulated disk-link cost added to every fault-in on top of the real
  // file read: link.stall_s(record bytes). LinkModel{} adds nothing.
  LinkModel link;

  // Environment-driven config: PC_DISK_DIR (presence enables the tier;
  // the value is `dir`) and PC_DISK_CAPACITY (optional; a plain decimal
  // byte count — anything else throws pc::ConfigError). Stores
  // constructed without an explicit DiskTierConfig use this.
  static DiskTierConfig from_env();
};

// Snapshot of the disk tier's counters (exact individually; cross-field
// invariants can be momentarily off mid-update). Conservation law, exact
// at quiescence:  spills == faults + evictions + read_failures + spilled.
struct DiskTierStats {
  uint64_t spills = 0;          // entries written to spill files
  uint64_t faults = 0;          // spill files read back into RAM
  uint64_t prefetch_hits = 0;   // serves that found a prefetched entry
  uint64_t prefetch_misses = 0; // demand fault-ins the prefetcher missed
  uint64_t evictions = 0;       // spilled records destroyed (disk pressure
                                // or administrative erase/clear)
  uint64_t read_failures = 0;   // fault-ins dropped (I/O fault, corruption)
  uint64_t spill_failures = 0;  // spill writes failed; victim was destroyed
  uint64_t stall_us = 0;        // wall time spent inside fault-in reads
  size_t spilled_bytes = 0;     // payload bytes currently on disk
  size_t spilled = 0;           // records currently on disk

  double stall_ms() const { return static_cast<double>(stall_us) / 1000.0; }
  // Fraction of disk reads the prefetcher hid from the serve path.
  double prefetch_hit_rate() const {
    const uint64_t denom = prefetch_hits + prefetch_misses;
    return denom == 0 ? 0.0
                      : static_cast<double>(prefetch_hits) /
                            static_cast<double>(denom);
  }
};

class SharedModuleStore {
 public:
  // Capacities in bytes; 0 means unlimited. Each tier holds at most its
  // capacity. The disk tier defaults to DiskTierConfig::from_env()
  // (disabled unless PC_DISK_DIR is set). `n_shards` must be 1: the store
  // has one lock and one LRU, and the parameter stays only for callers
  // that still pass it (bench/e2e).
  SharedModuleStore(size_t device_capacity, size_t host_capacity,
                    DiskTierConfig disk = DiskTierConfig::from_env(),
                    size_t n_shards = 1);
  ~SharedModuleStore();

  SharedModuleStore(const SharedModuleStore&) = delete;
  SharedModuleStore& operator=(const SharedModuleStore&) = delete;

  // A pinned-by-ownership read handle: dereferencing is lock-free and the
  // payload outlives concurrent eviction/replacement of the entry.
  class ModuleRef {
   public:
    ModuleRef() = default;
    ModuleRef(std::shared_ptr<const EncodedModule> module, ModuleLocation loc)
        : module_(std::move(module)), location_(loc) {}

    explicit operator bool() const { return module_ != nullptr; }
    const EncodedModule& operator*() const { return *module_; }
    const EncodedModule* operator->() const { return module_.get(); }
    const EncodedModule* get() const { return module_.get(); }
    ModuleLocation location() const { return location_; }
    // The payload's shared owner, for a holder that outlives this ref (a
    // cache borrowing the payload's rows).
    const std::shared_ptr<const EncodedModule>& shared() const {
      return module_;
    }
    void reset() { module_.reset(); }

   private:
    std::shared_ptr<const EncodedModule> module_;
    ModuleLocation location_ = ModuleLocation::kHostMemory;
  };

  // Looks up a module and bumps its recency; empty ref on miss. A key
  // resident on the disk tier is transparently faulted back in
  // (single-flight; the read runs outside the lock) and counts as a hit; a
  // key resident nowhere, or whose read fails, is a miss. This is ensure()
  // with nothing to encode. The ref keeps the payload alive, not resident:
  // pin() does that.
  ModuleRef find(const std::string& key) { return ensure(key, nullptr); }

  // Async-prefetch entry point: fault `key` in from the disk tier ahead of
  // demand. Returns true when the key is (or is about to be, when another
  // thread's flight is already on it) RAM-resident; false when the key is
  // resident nowhere or the fault-in failed. Entries faulted in here are
  // tagged; the first find()/ensure() that lands on the tag counts one
  // prefetch hit, while demand fault-ins on the serve path count prefetch
  // misses — hit rate = hits / (hits + misses). Never encodes, never
  // blocks on another thread's flight, and does not touch hit/miss cells.
  bool prefetch(const std::string& key);

  // Single-flight lookup-or-encode: returns a ref to the resident module,
  // running `encode` (outside the store lock) only if this caller is the
  // first to need a missing key. A spilled key is faulted in instead, and
  // the encode runs only if that read fails. `encoded_here` (if non-null)
  // reports whether this call ran the encode — the caller's "I paid the
  // forward pass" signal for its own stats. Counts one hit, or one miss
  // when the key had to be encoded; a waiter counts the hit it wakes to.
  // Propagates exceptions from `encode`; waiters behind a failed leader
  // retry (one becomes the next leader). An empty `encode` is find(): a
  // key neither RAM-resident nor spilled counts one miss and returns an
  // empty ref at once, without waiting on another caller's encode, and a
  // failed read returns an empty ref.
  ModuleRef ensure(const std::string& key,
                   const std::function<EncodedModule()>& encode,
                   bool* encoded_here = nullptr);

  // Inserts (or replaces) a module, placing it device-first and evicting
  // unpinned LRU entries as needed. A replaced entry keeps its pin count;
  // caches borrowing the old payload keep it alive.
  // Throws pc::CacheError when the module fits in neither tier.
  void insert(const std::string& key, EncodedModule module);

  // True when the key is resident in RAM or spilled to the disk tier
  // (either way a lookup will produce it without re-encoding).
  bool contains(const std::string& key) const;

  // Reference-counted pins: the entry is not evictable while the count is
  // positive. pin() returns false if the key is absent; unpin() returns
  // false if absent or not pinned (the count never goes negative).
  bool pin(const std::string& key);
  bool unpin(const std::string& key);
  bool is_pinned(const std::string& key) const;  // pin count > 0
  int pin_count(const std::string& key) const;   // 0 if absent

  // Moves an entry to `target`, evicting unpinned LRU entries there as
  // needed; false when absent or it cannot fit. `moved` (if non-null)
  // reports whether a transfer actually happened (false for already-there).
  bool promote(const std::string& key, ModuleLocation target,
               bool* moved = nullptr);

  // Administrative removal (schema reload): erases the entry even if
  // pinned — caches borrowing it keep the payload alive, and a later unpin
  // simply returns false. Contrast eviction, which respects pins.
  void erase(const std::string& key);
  void clear();

  // Visits every RAM-resident entry. The callback runs under the shared
  // lock and must not call back into the store.
  void for_each(const std::function<void(const std::string& key,
                                         const EncodedModule& module,
                                         ModuleLocation location)>& fn) const;

  size_t size() const;

  // Capacity and usage of `loc`, and total resident payload.
  TierUsage usage(ModuleLocation loc) const;
  size_t resident_bytes() const;
  // High-water mark of resident RAM bytes across the store's lifetime —
  // the "peak RSS" the tiered bench reports against the configured cap.
  size_t peak_resident_bytes() const {
    return peak_resident_bytes_.load(std::memory_order_relaxed);
  }

  // Disk tier telemetry. disk_stats() snapshots the pc_store_disk_* cells;
  // spilled_count()/spilled_bytes() are the current on-disk footprint.
  bool disk_enabled() const { return disk_.enabled; }
  DiskTierStats disk_stats() const;
  size_t spilled_count() const;
  size_t spilled_bytes() const {
    return static_cast<size_t>(disk_spilled_bytes_.value());
  }

  // Consistent-enough snapshot of the counter cells (individual fields are
  // exact; cross-field invariants can be momentarily off mid-update).
  ModuleStoreStats stats() const { return cells_.snapshot(); }
  // Resident payload split by format (mirrors the pc_store_resident_bytes_*
  // gauges; q8 = Q8_0 modules, q4 = Q4_0 modules, fp32 = fp32 modules).
  size_t resident_bytes_q8() const {
    return static_cast<size_t>(cells_.resident_bytes_q8.value());
  }
  size_t resident_bytes_q4() const {
    return static_cast<size_t>(cells_.resident_bytes_q4.value());
  }
  size_t resident_bytes_fp32() const {
    return static_cast<size_t>(cells_.resident_bytes_fp32.value());
  }
  // Callers that blocked on another thread's in-flight encode — each one is
  // a duplicate forward pass single-flight saved.
  uint64_t single_flight_waits() const { return single_flight_waits_.value(); }

 private:
  struct Entry {
    std::shared_ptr<const EncodedModule> module;
    ModuleLocation location = ModuleLocation::kHostMemory;
    int pin_count = 0;
    uint64_t last_used = 0;  // store clock stamp; smallest = coldest
    // Faulted in by prefetch() and not yet used by a serve: the first
    // find()/ensure() hit clears this and counts one prefetch hit.
    bool prefetched = false;
  };

  // A record resident on the disk tier (absent from `entries_`).
  struct SpillInfo {
    std::string path;
    size_t bytes = 0;
    uint64_t last_used = 0;  // recency at spill time; smallest = coldest
  };

  // One single-flight encode in progress for a key.
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;  // leader finished (successfully or not)
  };

  // All *_locked helpers, and tick(), require the exclusive lock.
  uint64_t tick() { return clock_++; }

  // ensure()'s RAM lookup: polls the injected evict fault, and on a hit
  // bumps recency, settles the prefetch tag and counts the hit. An empty
  // ref means the key is not RAM-resident (nothing counted: the caller
  // decides whether that is a miss).
  ModuleRef lookup_locked(const std::string& key);
  bool make_room_locked(ModuleLocation loc, size_t bytes);
  void erase_locked(std::unordered_map<std::string, Entry>::iterator it);
  // Places the payload, carrying over a replaced entry's pins. Returns the
  // chosen tier; throws CacheError when nothing fits. kDeviceFirst is the
  // insert/encode order; fault-ins place kHostFirst so disk bytes surface
  // as host-resident (and get charged through the LinkModel).
  enum class PlacePref { kDeviceFirst, kHostFirst };
  ModuleLocation place_locked(const std::string& key,
                              std::shared_ptr<const EncodedModule> module,
                              PlacePref pref = PlacePref::kDeviceFirst);
  void finish_flight(const std::string& key);

  // Disk-tier helpers. spill_locked serializes the victim crash-atomically
  // and converts the entry into a spill record; false (injected write
  // fault, disk full, I/O error) means the caller must destroy-evict
  // instead. make_disk_room_locked destroys the coldest spilled records
  // (skipping keys with an active flight) until `bytes` fit.
  bool spill_locked(std::unordered_map<std::string, Entry>::iterator victim);
  bool make_disk_room_locked(size_t bytes);
  void drop_spill_locked(
      std::unordered_map<std::string, SpillInfo>::iterator it,
      bool count_eviction);
  // Single-flight fault-in leader path: reads `info` outside the lock and
  // places the payload. The caller registered the key's Flight and is
  // responsible for finishing it — ensure() keeps the flight alive to fall
  // back to an encode when the read fails (empty ref; record dropped).
  ModuleRef fault_in(const std::string& key, SpillInfo info,
                     bool prefetching);
  void note_resident_peak();

  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> in_flight_;
  TierAllocator tiers_;
  // Disk tier: spilled records and the disk budget.
  std::unordered_map<std::string, SpillInfo> spilled_;
  TierUsage disk_usage_;
  uint64_t clock_ = 1;  // recency stamps (under the exclusive lock)
  std::atomic<size_t> peak_resident_bytes_{0};

  DiskTierConfig disk_;
  std::string spill_dir_;  // this store's unique subdir ("" = disk off)
  std::atomic<uint64_t> spill_seq_{0};

  ModuleStoreCells cells_;
  obs::Counter single_flight_waits_;  // pc_store_single_flight_waits_total
  obs::Counter disk_spills_;          // pc_store_disk_spills_total
  obs::Counter disk_faults_;          // pc_store_disk_faults_total
  obs::Counter disk_prefetch_hits_;   // pc_store_disk_prefetch_hits_total
  obs::Counter disk_prefetch_misses_; // pc_store_disk_prefetch_misses_total
  obs::Counter disk_evictions_;       // pc_store_disk_evictions_total
  obs::Counter disk_read_failures_;   // pc_store_disk_read_failures_total
  obs::Counter disk_spill_failures_;  // pc_store_disk_spill_failures_total
  obs::Counter disk_stall_us_;        // pc_store_disk_stall_us_total
  obs::Gauge disk_spilled_bytes_;     // pc_store_disk_spilled_bytes
};

}  // namespace pc
