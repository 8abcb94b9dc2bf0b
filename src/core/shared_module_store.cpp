#include "core/shared_module_store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "core/serialize.h"
#include "obs/trace.h"
#include "sys/fault.h"

namespace pc {

namespace {

// Shard slices sum EXACTLY to `total`: base = total / n, with the first
// total % n shards taking one extra byte. When capacity < n_shards some
// slices are genuinely 0 bytes — those shards are closed (zero_capacity),
// not unlimited and not rounded up. The old clamp to "at least 1 byte"
// made per-shard capacities sum to more than the configured total, so a
// store configured for N bytes could admit more than N.
size_t split_capacity(size_t total, size_t n_shards, size_t shard_index) {
  if (total == 0) return 0;  // unlimited stays unlimited per shard
  const size_t base = total / n_shards;
  const size_t extra = shard_index < total % n_shards ? 1 : 0;
  return base + extra;
}

uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

ModuleStoreCells::ModuleStoreCells() {
  auto& reg = obs::MetricsRegistry::global();
  hits = reg.counter("pc_store_hits_total", "module store lookup hits");
  misses = reg.counter("pc_store_misses_total", "module store lookup misses");
  insertions =
      reg.counter("pc_store_insertions_total", "modules inserted into store");
  evictions = reg.counter("pc_store_evictions_total",
                          "modules dropped entirely (re-encode on next use)");
  demotions = reg.counter("pc_store_demotions_total",
                          "modules moved device -> host to make room");
  promotions = reg.counter("pc_store_promotions_total",
                           "modules moved host -> device (prefetch/warm-up)");
  resident_bytes =
      reg.gauge("pc_store_resident_bytes", "encoded bytes resident, all tiers");
  resident_bytes_fp32 = reg.gauge(
      "pc_store_resident_bytes_fp32",
      "resident bytes in unquantized (fp32/fp16) module payloads");
  resident_bytes_q8 = reg.gauge("pc_store_resident_bytes_q8",
                                "resident bytes in Q8_0 module payloads");
  resident_bytes_q4 = reg.gauge("pc_store_resident_bytes_q4",
                                "resident bytes in Q4_0 module payloads");
  pinned_entries =
      reg.gauge("pc_store_pinned_entries", "entries exempt from eviction");
}

DiskTierConfig DiskTierConfig::from_env() {
  DiskTierConfig cfg;
  const char* dir = std::getenv("PC_DISK_DIR");
  if (dir != nullptr && *dir != '\0') {
    cfg.enabled = true;
    cfg.dir = dir;
  }
  const char* cap = std::getenv("PC_DISK_CAPACITY");
  if (cap != nullptr && *cap != '\0') {
    cfg.capacity_bytes = std::strtoull(cap, nullptr, 10);
  }
  return cfg;
}

SharedModuleStore::SharedModuleStore(size_t device_capacity,
                                     size_t host_capacity, size_t n_shards)
    : SharedModuleStore(device_capacity, host_capacity,
                        DiskTierConfig::from_env(), n_shards) {}

SharedModuleStore::SharedModuleStore(size_t device_capacity,
                                     size_t host_capacity, DiskTierConfig disk,
                                     size_t n_shards)
    : device_capacity_total_(device_capacity),
      host_capacity_total_(host_capacity),
      disk_(std::move(disk)),
      single_flight_waits_(obs::MetricsRegistry::global().counter(
          "pc_store_single_flight_waits_total",
          "callers that blocked on another thread's in-flight encode")),
      disk_spills_(obs::MetricsRegistry::global().counter(
          "pc_store_disk_spills_total",
          "entries serialized to the disk tier instead of destroyed")),
      disk_faults_(obs::MetricsRegistry::global().counter(
          "pc_store_disk_faults_total",
          "spill records faulted back into RAM")),
      disk_prefetch_hits_(obs::MetricsRegistry::global().counter(
          "pc_store_disk_prefetch_hits_total",
          "serves that found their module already prefetched from disk")),
      disk_prefetch_misses_(obs::MetricsRegistry::global().counter(
          "pc_store_disk_prefetch_misses_total",
          "demand fault-ins on the serve path the prefetcher missed")),
      disk_evictions_(obs::MetricsRegistry::global().counter(
          "pc_store_disk_evictions_total",
          "spill records destroyed (disk pressure, replacement, or erase)")),
      disk_read_failures_(obs::MetricsRegistry::global().counter(
          "pc_store_disk_read_failures_total",
          "fault-ins dropped on I/O failure or corruption")),
      disk_spill_failures_(obs::MetricsRegistry::global().counter(
          "pc_store_disk_spill_failures_total",
          "spill writes that failed; the victim was destroyed instead")),
      disk_stall_us_(obs::MetricsRegistry::global().counter(
          "pc_store_disk_stall_us_total",
          "wall microseconds spent inside disk fault-in reads")),
      disk_spilled_bytes_(obs::MetricsRegistry::global().gauge(
          "pc_store_disk_spilled_bytes",
          "payload bytes currently resident on the disk tier")) {
  PC_CHECK_MSG(n_shards > 0, "SharedModuleStore needs at least one shard");
  shards_.reserve(n_shards);
  for (size_t i = 0; i < n_shards; ++i) {
    const size_t host_slice = split_capacity(host_capacity, n_shards, i);
    const size_t device_slice = split_capacity(device_capacity, n_shards, i);
    shards_.push_back(std::make_unique<Shard>(
        host_slice, device_slice,
        /*host_zero=*/host_capacity != 0 && host_slice == 0,
        /*device_zero=*/device_capacity != 0 && device_slice == 0));
    Shard& s = *shards_.back();
    const size_t disk_slice =
        split_capacity(disk_.capacity_bytes, n_shards, i);
    s.disk.capacity_bytes = disk_slice;
    s.disk.zero_capacity = disk_.capacity_bytes != 0 && disk_slice == 0;
  }
  if (disk_.enabled) {
    namespace fs = std::filesystem;
    // One unique subdirectory per store instance: parallel stores (and
    // parallel test binaries) never collide, and the destructor can remove
    // the whole directory without touching anyone else's spill files.
    static std::atomic<uint64_t> instance{0};
    std::error_code ec;
    fs::path base = disk_.dir.empty() ? fs::temp_directory_path(ec)
                                      : fs::path(disk_.dir);
    fs::path dir = base / ("pc_spill_" +
                           std::to_string(static_cast<uint64_t>(::getpid())) +
                           "_" + std::to_string(instance.fetch_add(1)));
    fs::create_directories(dir, ec);
    if (ec) {
      throw ConfigError("cannot create spill directory '" + dir.string() +
                        "': " + ec.message());
    }
    spill_dir_ = dir.string();
  }
}

SharedModuleStore::~SharedModuleStore() {
  if (!spill_dir_.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);  // best-effort cleanup
  }
}

SharedModuleStore::ModuleRef SharedModuleStore::find(const std::string& key,
                                                     bool and_pin) {
  Shard& s = shard_for(key);
  for (;;) {
    std::shared_ptr<Flight> flight;
    SpillInfo spill;  // non-empty path <=> this caller leads a fault-in
    {
      std::unique_lock lock(s.mutex);
      if (ModuleRef ref = lookup_locked(s, key, and_pin)) return ref;
      auto sit = s.spilled.find(key);
      if (sit == s.spilled.end()) {
        cells_.misses.inc();
        return {};
      }
      // The key is on the disk tier: fault it in, single-flight against
      // concurrent encodes and other fault-ins.
      auto fit = s.in_flight.find(key);
      if (fit == s.in_flight.end()) {
        flight = std::make_shared<Flight>();
        s.in_flight.emplace(key, flight);
        spill = sit->second;
      } else {
        flight = fit->second;
        single_flight_waits_.inc();
      }
    }
    if (spill.path.empty()) {
      // Waiter: block on the leader's flight, then retry the lookup.
      PC_SPAN("single_flight_wait");
      std::unique_lock fl(flight->mutex);
      flight->cv.wait(fl, [&] { return flight->done; });
      continue;
    }
    ModuleRef ref = fault_in(s, key, std::move(spill), and_pin,
                             /*prefetching=*/false);
    finish_flight(s, key);
    // A successful fault-in is a (disk) hit: the caller proceeds without
    // re-encoding. A failed read is a miss — the record was dropped and
    // the caller re-encodes, exactly like a destroyed entry.
    (ref ? cells_.hits : cells_.misses).inc();
    return ref;
  }
}

SharedModuleStore::ModuleRef SharedModuleStore::lookup_locked(
    Shard& s, const std::string& key, bool and_pin) {
  auto it = s.entries.find(key);
  if (it == s.entries.end()) return {};
  // Injected store pressure: spuriously evict the (unpinned) entry so the
  // caller takes the thrash-reencode path. Pinned entries are exempt, as in
  // real eviction. The fault poll runs last so no draw is consumed when
  // there is nothing to evict.
  if (it->second.pin_count == 0 &&
      FaultInjector::global().should_fail(FaultPoint::kEvict)) {
    erase_locked(s, it);
    cells_.evictions.inc();
    return {};
  }
  Entry& e = it->second;
  cells_.hits.inc();
  e.last_used = tick();
  if (e.prefetched) {
    e.prefetched = false;
    disk_prefetch_hits_.inc();
  }
  if (and_pin && ++e.pin_count == 1) cells_.pinned_entries.add(1);
  return ModuleRef(e.module, e.location);
}

bool SharedModuleStore::prefetch(const std::string& key) {
  Shard& s = shard_for(key);
  SpillInfo spill;
  {
    std::unique_lock lock(s.mutex);
    auto it = s.entries.find(key);
    if (it != s.entries.end()) {
      // Already resident; it is about to be used, so bump its recency.
      it->second.last_used = tick();
      return true;
    }
    auto sit = s.spilled.find(key);
    if (sit == s.spilled.end()) return false;
    // Single-flight dedup: if an ensure() leader or another fault-in is
    // already producing the key, the prefetch's job is done — never block
    // the pipeline behind someone else's flight.
    if (s.in_flight.contains(key)) return true;
    auto flight = std::make_shared<Flight>();
    s.in_flight.emplace(key, flight);
    spill = sit->second;
  }
  ModuleRef ref =
      fault_in(s, key, std::move(spill), /*and_pin=*/false,
               /*prefetching=*/true);
  finish_flight(s, key);
  return static_cast<bool>(ref);
}

SharedModuleStore::ModuleRef SharedModuleStore::fault_in(Shard& s,
                                                         const std::string& key,
                                                         SpillInfo info,
                                                         bool and_pin,
                                                         bool prefetching) {
  PC_SPAN("disk_fault_in");
  const auto t0 = std::chrono::steady_clock::now();
  // The read runs with no store locks held, like the encode leader path.
  std::shared_ptr<const EncodedModule> payload;
  if (!FaultInjector::global().should_fail(FaultPoint::kDiskRead)) {
    try {
      payload =
          std::make_shared<const EncodedModule>(read_module_file(info.path, key));
    } catch (const Error&) {
      payload = nullptr;  // corrupt/truncated/missing: a read failure
    }
  }
  if (payload != nullptr && (disk_.read_latency_s > 0 ||
                             disk_.read_bandwidth_bytes_per_s > 0)) {
    // Simulated disk-link cost on top of the real file read (see
    // sys/server.h's host-link rationale: modeled hardware sleeps for the
    // time the real transfer would take, overlapping across threads).
    double cost_s = disk_.read_latency_s;
    if (disk_.read_bandwidth_bytes_per_s > 0) {
      cost_s += static_cast<double>(info.bytes) /
                disk_.read_bandwidth_bytes_per_s;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(cost_s));
  }
  disk_stall_us_.inc(elapsed_us(t0));

  std::unique_lock lock(s.mutex);
  // The record may have been administratively erased (or replaced) while
  // we read; only account transitions for a record that is still ours.
  auto sit = s.spilled.find(key);
  const bool record_live =
      sit != s.spilled.end() && sit->second.path == info.path;
  if (payload == nullptr) {
    if (record_live) {
      drop_spill_locked(s, sit, /*count_eviction=*/false);
      disk_read_failures_.inc();
    }
    return {};
  }
  if (record_live) {
    drop_spill_locked(s, sit, /*count_eviction=*/false);
    disk_faults_.inc();
    // A fault-in on the serve path is latency the prefetcher failed to
    // hide; a prefetcher fault-in is the pipeline doing its job.
    if (!prefetching) disk_prefetch_misses_.inc();
  }
  try {
    // Host-first: disk bytes surface as host-resident, so the serve path
    // charges them through the LinkModel like any host-tier module.
    const ModuleLocation loc = place_locked(s, key, payload,
                                            /*pins=*/and_pin ? 1 : 0,
                                            PlacePref::kHostFirst);
    auto eit = s.entries.find(key);
    if (eit != s.entries.end()) eit->second.prefetched = prefetching;
    return ModuleRef(std::move(payload), loc);
  } catch (const CacheError&) {
    // Every RAM tier is wedged shut (pinned bytes). The payload is in
    // hand, so serve this caller through the ref; the key simply stops
    // being resident and a later lookup re-encodes it (deterministically —
    // bitwise identity is preserved either way).
    return ModuleRef(std::move(payload), ModuleLocation::kHostMemory);
  }
}

SharedModuleStore::ModuleRef SharedModuleStore::ensure(
    const std::string& key, const std::function<EncodedModule()>& encode,
    bool* encoded_here, bool and_pin) {
  if (encoded_here != nullptr) *encoded_here = false;
  Shard& s = shard_for(key);
  SpillInfo spill;
  for (;;) {
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock lock(s.mutex);
      if (ModuleRef ref = lookup_locked(s, key, and_pin)) return ref;
      auto fit = s.in_flight.find(key);
      if (fit == s.in_flight.end()) {
        // This caller is the leader for the key.
        flight = std::make_shared<Flight>();
        s.in_flight.emplace(key, flight);
        if (auto sit = s.spilled.find(key); sit != s.spilled.end()) {
          spill = sit->second;
        }
        break;
      }
      flight = fit->second;
      single_flight_waits_.inc();
    }
    // Wait for the leader, then re-check the entry table. A failed leader
    // leaves no entry; the loop makes one waiter the next leader.
    PC_SPAN("single_flight_wait");
    std::unique_lock fl(flight->mutex);
    flight->cv.wait(fl, [&] { return flight->done; });
  }

  // Leader path. A spilled record short-circuits the encode: the disk
  // payload is byte-exact, so faulting it in costs a read, not a forward
  // pass. A failed read falls through to the encode, still as the same
  // flight leader (waiters stay parked — no duplicate encodes).
  if (!spill.path.empty()) {
    ModuleRef ref = fault_in(s, key, std::move(spill), and_pin,
                             /*prefetching=*/false);
    if (ref) {
      finish_flight(s, key);
      cells_.hits.inc();  // a disk hit: no encode was needed
      return ref;
    }
  }
  cells_.misses.inc();

  // The forward pass runs with no store locks held, so other shard keys
  // (and other shards) stay fully available meanwhile.
  std::shared_ptr<const EncodedModule> payload;
  ModuleLocation loc;
  try {
    payload = std::make_shared<const EncodedModule>(encode());
    std::unique_lock lock(s.mutex);
    loc = place_locked(s, key, payload, /*pins=*/and_pin ? 1 : 0);
  } catch (...) {
    finish_flight(s, key);
    throw;
  }
  finish_flight(s, key);
  if (encoded_here != nullptr) *encoded_here = true;
  // The ref is built from the leader's own payload pointer: valid even if
  // the entry was already evicted again by a racing insert.
  return ModuleRef(std::move(payload), loc);
}

void SharedModuleStore::finish_flight(Shard& s, const std::string& key) {
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock lock(s.mutex);
    auto it = s.in_flight.find(key);
    PC_CHECK_MSG(it != s.in_flight.end(), "single-flight entry vanished");
    flight = std::move(it->second);
    s.in_flight.erase(it);
  }
  {
    std::lock_guard fl(flight->mutex);
    flight->done = true;
  }
  flight->cv.notify_all();
}

void SharedModuleStore::insert(const std::string& key, EncodedModule module) {
  Shard& s = shard_for(key);
  auto payload = std::make_shared<const EncodedModule>(std::move(module));
  std::unique_lock lock(s.mutex);
  (void)place_locked(s, key, std::move(payload), /*pins=*/0);
}

ModuleLocation SharedModuleStore::place_locked(
    Shard& s, const std::string& key,
    std::shared_ptr<const EncodedModule> module, int pins, PlacePref pref) {
  // Replace semantics: free the old entry first, carrying its pin count
  // over (live borrowers keep the old payload alive through their refs).
  auto old = s.entries.find(key);
  if (old != s.entries.end()) {
    pins += old->second.pin_count;
    erase_locked(s, old);
  }
  // A (re)placed key obsoletes any spill record still on disk for it — a
  // stale record must never fault in over newer content.
  if (auto srec = s.spilled.find(key); srec != s.spilled.end()) {
    drop_spill_locked(s, srec, /*count_eviction=*/true);
  }

  const size_t bytes = module->payload_bytes();
  const ModuleLocation first = pref == PlacePref::kDeviceFirst
                                   ? ModuleLocation::kDeviceMemory
                                   : ModuleLocation::kHostMemory;
  const ModuleLocation second = pref == PlacePref::kDeviceFirst
                                    ? ModuleLocation::kHostMemory
                                    : ModuleLocation::kDeviceMemory;
  ModuleLocation loc;
  if (s.tiers.can_fit(first, bytes)) {
    loc = first;
  } else if (s.tiers.can_fit(second, bytes)) {
    loc = second;
  } else if (make_room_locked(s, first, bytes)) {
    loc = first;
  } else if (make_room_locked(s, second, bytes)) {
    loc = second;
  } else {
    // Name the obstacle, since each has a different fix: pinned entries
    // holding the room of a tier slice the module fits, a 1/N shard slice
    // too small for a module the configured total could hold (a sharding
    // problem), or tiers smaller than the module.
    const std::string what =
        "module '" + key + "' (" + std::to_string(bytes) + " bytes) ";
    if (bytes <= s.tiers.usage(ModuleLocation::kDeviceMemory).capacity_bytes ||
        bytes <= s.tiers.usage(ModuleLocation::kHostMemory).capacity_bytes) {
      throw CacheError(what +
                       "does not fit in any memory tier: the room it needs "
                       "is held by pinned entries");
    }
    if (bytes <= std::max(device_capacity_total_, host_capacity_total_)) {
      throw CacheError(
          what +
          "exceeds its per-shard slice of every memory tier (capacities "
          "are split across " +
          std::to_string(shards_.size()) +
          " shards) but fits the configured total — lower n_shards or "
          "raise capacity");
    }
    throw CacheError(what + "is larger than every memory tier");
  }
  s.tiers.charge(loc, bytes);
  obs::Gauge* format_gauge = &cells_.resident_bytes_fp32;
  if (module->precision == StorePrecision::kQ8) {
    format_gauge = &cells_.resident_bytes_q8;
  } else if (module->precision == StorePrecision::kQ4) {
    format_gauge = &cells_.resident_bytes_q4;
  }
  s.entries.emplace(key, Entry{std::move(module), loc, pins, tick(),
                               /*prefetched=*/false});
  cells_.insertions.inc();
  cells_.resident_bytes.add(static_cast<int64_t>(bytes));
  note_resident_peak();
  format_gauge->add(static_cast<int64_t>(bytes));
  if (pins > 0) cells_.pinned_entries.add(1);
  return loc;
}

bool SharedModuleStore::make_room_locked(Shard& s, ModuleLocation loc,
                                         size_t bytes) {
  const TierUsage& u = s.tiers.usage(loc);
  if (!u.unlimited() && bytes > u.capacity_bytes) return false;
  while (!s.tiers.can_fit(loc, bytes)) {
    // Victim: the coldest unpinned entry resident in this tier.
    auto victim = s.entries.end();
    for (auto it = s.entries.begin(); it != s.entries.end(); ++it) {
      if (it->second.location != loc || it->second.pin_count > 0) continue;
      if (victim == s.entries.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == s.entries.end()) return false;  // nothing evictable left

    // Device victims demote to host when it has room (encoded states are
    // expensive to recompute and host is the abundant tier, §4.1).
    const size_t vbytes = victim->second.module->payload_bytes();
    if (loc == ModuleLocation::kDeviceMemory &&
        s.tiers.can_fit(ModuleLocation::kHostMemory, vbytes)) {
      s.tiers.credit(loc, vbytes);
      s.tiers.charge(ModuleLocation::kHostMemory, vbytes);
      victim->second.location = ModuleLocation::kHostMemory;
      cells_.demotions.inc();
    } else if (spill_locked(s, victim)) {
      // The victim left RAM for the disk tier instead of being destroyed;
      // a later lookup faults it back in byte-exact.
    } else {
      erase_locked(s, victim);
      cells_.evictions.inc();
    }
  }
  return true;
}

bool SharedModuleStore::spill_locked(
    Shard& s, std::unordered_map<std::string, Entry>::iterator victim) {
  if (spill_dir_.empty()) return false;
  const size_t bytes = victim->second.module->payload_bytes();
  if (!make_disk_room_locked(s, bytes)) return false;
  if (FaultInjector::global().should_fail(FaultPoint::kDiskWrite)) {
    disk_spill_failures_.inc();
    return false;
  }
  const std::string path = spill_dir_ + "/m" +
                           std::to_string(spill_seq_.fetch_add(
                               1, std::memory_order_relaxed)) +
                           ".pcmod";
  try {
    // Crash-atomic (tmp + flush + rename, core/serialize.cpp): a crash or
    // write fault mid-spill never leaves a partial file to fault in from.
    write_module_file(path, victim->first, *victim->second.module);
  } catch (const Error&) {
    disk_spill_failures_.inc();
    return false;
  }
  // A stale record for the same key (entry was re-inserted while a spill
  // record existed) is replaced, not leaked.
  if (auto old = s.spilled.find(victim->first); old != s.spilled.end()) {
    drop_spill_locked(s, old, /*count_eviction=*/true);
  }
  s.spilled.emplace(victim->first,
                    SpillInfo{path, bytes, victim->second.last_used});
  s.disk.used_bytes += bytes;
  disk_spills_.inc();
  disk_spilled_bytes_.add(static_cast<int64_t>(bytes));
  erase_locked(s, victim);
  return true;
}

bool SharedModuleStore::make_disk_room_locked(Shard& s, size_t bytes) {
  if (s.disk.unlimited()) return true;
  if (bytes > s.disk.capacity_bytes) return false;
  while (bytes > s.disk.capacity_bytes - s.disk.used_bytes) {
    // Victim: the coldest spilled record without an active flight (a file
    // mid-fault-in must not be deleted under the reader).
    auto victim = s.spilled.end();
    for (auto it = s.spilled.begin(); it != s.spilled.end(); ++it) {
      if (s.in_flight.contains(it->first)) continue;
      if (victim == s.spilled.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == s.spilled.end()) return false;
    drop_spill_locked(s, victim, /*count_eviction=*/true);
  }
  return true;
}

void SharedModuleStore::drop_spill_locked(
    Shard& s, std::unordered_map<std::string, SpillInfo>::iterator it,
    bool count_eviction) {
  PC_CHECK_MSG(s.disk.used_bytes >= it->second.bytes, "disk tier under-flow");
  s.disk.used_bytes -= it->second.bytes;
  disk_spilled_bytes_.sub(static_cast<int64_t>(it->second.bytes));
  std::error_code ec;
  std::filesystem::remove(it->second.path, ec);  // best-effort
  if (count_eviction) disk_evictions_.inc();
  s.spilled.erase(it);
}

void SharedModuleStore::note_resident_peak() {
  const auto resident = static_cast<size_t>(cells_.resident_bytes.value());
  size_t prev = peak_resident_bytes_.load(std::memory_order_relaxed);
  while (resident > prev &&
         !peak_resident_bytes_.compare_exchange_weak(
             prev, resident, std::memory_order_relaxed)) {
  }
}

void SharedModuleStore::erase_locked(
    Shard& s, std::unordered_map<std::string, Entry>::iterator it) {
  const size_t bytes = it->second.module->payload_bytes();
  s.tiers.credit(it->second.location, bytes);
  cells_.resident_bytes.sub(static_cast<int64_t>(bytes));
  obs::Gauge* format_gauge = &cells_.resident_bytes_fp32;
  if (it->second.module->precision == StorePrecision::kQ8) {
    format_gauge = &cells_.resident_bytes_q8;
  } else if (it->second.module->precision == StorePrecision::kQ4) {
    format_gauge = &cells_.resident_bytes_q4;
  }
  format_gauge->sub(static_cast<int64_t>(bytes));
  if (it->second.pin_count > 0) cells_.pinned_entries.sub(1);
  s.entries.erase(it);
}

bool SharedModuleStore::contains(const std::string& key) const {
  const Shard& s = shard_for(key);
  std::shared_lock lock(s.mutex);
  return s.entries.contains(key) || s.spilled.contains(key);
}

bool SharedModuleStore::pin(const std::string& key) {
  Shard& s = shard_for(key);
  std::unique_lock lock(s.mutex);
  auto it = s.entries.find(key);
  if (it == s.entries.end()) return false;
  if (++it->second.pin_count == 1) cells_.pinned_entries.add(1);
  return true;
}

bool SharedModuleStore::unpin(const std::string& key) {
  Shard& s = shard_for(key);
  std::unique_lock lock(s.mutex);
  auto it = s.entries.find(key);
  if (it == s.entries.end() || it->second.pin_count == 0) return false;
  if (--it->second.pin_count == 0) cells_.pinned_entries.sub(1);
  return true;
}

bool SharedModuleStore::is_pinned(const std::string& key) const {
  return pin_count(key) > 0;
}

int SharedModuleStore::pin_count(const std::string& key) const {
  const Shard& s = shard_for(key);
  std::shared_lock lock(s.mutex);
  auto it = s.entries.find(key);
  return it == s.entries.end() ? 0 : it->second.pin_count;
}

bool SharedModuleStore::promote(const std::string& key, ModuleLocation target,
                                bool* moved) {
  if (moved != nullptr) *moved = false;
  Shard& s = shard_for(key);
  std::unique_lock lock(s.mutex);
  auto it = s.entries.find(key);
  if (it == s.entries.end()) return false;
  Entry& e = it->second;
  if (e.location == target) return true;
  const size_t bytes = e.module->payload_bytes();
  // make_room may evict entries but never this one (it is in the other
  // tier, and pinned entries are skipped anyway).
  if (!make_room_locked(s, target, bytes)) return false;
  s.tiers.credit(e.location, bytes);
  s.tiers.charge(target, bytes);
  e.location = target;
  cells_.promotions.inc();
  if (moved != nullptr) *moved = true;
  return true;
}

void SharedModuleStore::erase(const std::string& key) {
  Shard& s = shard_for(key);
  std::unique_lock lock(s.mutex);
  auto it = s.entries.find(key);
  if (it != s.entries.end()) erase_locked(s, it);
  if (auto sit = s.spilled.find(key); sit != s.spilled.end()) {
    drop_spill_locked(s, sit, /*count_eviction=*/true);
  }
}

void SharedModuleStore::clear() {
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    while (!shard->entries.empty()) {
      erase_locked(*shard, shard->entries.begin());
    }
    while (!shard->spilled.empty()) {
      drop_spill_locked(*shard, shard->spilled.begin(),
                        /*count_eviction=*/true);
    }
  }
}

void SharedModuleStore::for_each(
    const std::function<void(const std::string& key,
                             const EncodedModule& module,
                             ModuleLocation location)>& fn) const {
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    for (const auto& [key, entry] : shard->entries) {
      fn(key, *entry.module, entry.location);
    }
  }
}

size_t SharedModuleStore::size() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    n += shard->entries.size();
  }
  return n;
}

size_t SharedModuleStore::spilled_count() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    n += shard->spilled.size();
  }
  return n;
}

DiskTierStats SharedModuleStore::disk_stats() const {
  DiskTierStats d;
  d.spills = disk_spills_.value();
  d.faults = disk_faults_.value();
  d.prefetch_hits = disk_prefetch_hits_.value();
  d.prefetch_misses = disk_prefetch_misses_.value();
  d.evictions = disk_evictions_.value();
  d.read_failures = disk_read_failures_.value();
  d.spill_failures = disk_spill_failures_.value();
  d.stall_us = disk_stall_us_.value();
  d.spilled_bytes = spilled_bytes();
  d.spilled = spilled_count();
  return d;
}

TierUsage SharedModuleStore::usage(ModuleLocation loc) const {
  TierUsage total;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    const TierUsage& u = shard->tiers.usage(loc);
    total.capacity_bytes += u.capacity_bytes;
    total.used_bytes += u.used_bytes;
  }
  return total;
}

size_t SharedModuleStore::resident_bytes() const {
  return usage(ModuleLocation::kDeviceMemory).used_bytes +
         usage(ModuleLocation::kHostMemory).used_bytes;
}

}  // namespace pc
