#include "core/shared_module_store.h"

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string_view>
#include <thread>

#include "core/serialize.h"
#include "obs/trace.h"
#include "sys/fault.h"

namespace pc {

namespace {

// PC_DISK_CAPACITY is a plain decimal byte count that fits size_t.
// strtoull alone would read "10GB" as 10 bytes, "1e9" as 1, "abc" as
// unbounded and "-1" as ~1.8e19 — a budget the operator never wrote.
size_t parse_disk_capacity(std::string_view text) {
  size_t bytes = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, bytes);
  if (ec != std::errc() || ptr != end) {
    throw ConfigError("PC_DISK_CAPACITY: '" + std::string(text) +
                      "' is not a plain decimal byte count");
  }
  return bytes;
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
    cfg.capacity_bytes = parse_disk_capacity(cap);
  }
  return cfg;
}

SharedModuleStore::SharedModuleStore(size_t device_capacity,
                                     size_t host_capacity, DiskTierConfig disk,
                                     size_t n_shards)
    : tiers_(host_capacity, device_capacity),
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
  PC_CHECK_MSG(n_shards == 1,
               "SharedModuleStore has one lock: n_shards must be 1");
  disk_usage_.capacity_bytes = disk_.capacity_bytes;
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

SharedModuleStore::ModuleRef SharedModuleStore::lookup_locked(
    const std::string& key, bool and_pin) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  // Injected store pressure: spuriously evict the (unpinned) entry so the
  // caller takes the thrash-reencode path. Pinned entries are exempt, as in
  // real eviction. The fault poll runs last so no draw is consumed when
  // there is nothing to evict.
  if (it->second.pin_count == 0 &&
      FaultInjector::global().should_fail(FaultPoint::kEvict)) {
    erase_locked(it);
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
  SpillInfo spill;
  {
    std::unique_lock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // Already resident; it is about to be used, so bump its recency.
      it->second.last_used = tick();
      return true;
    }
    auto sit = spilled_.find(key);
    if (sit == spilled_.end()) return false;
    // Single-flight dedup: if an ensure() leader or another fault-in is
    // already producing the key, the prefetch's job is done — never block
    // the pipeline behind someone else's flight.
    if (in_flight_.contains(key)) return true;
    auto flight = std::make_shared<Flight>();
    in_flight_.emplace(key, flight);
    spill = sit->second;
  }
  ModuleRef ref = fault_in(key, std::move(spill), /*and_pin=*/false,
                           /*prefetching=*/true);
  finish_flight(key);
  return static_cast<bool>(ref);
}

SharedModuleStore::ModuleRef SharedModuleStore::fault_in(
    const std::string& key, SpillInfo info, bool and_pin, bool prefetching) {
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
  if (const double cost_s = disk_.link.stall_s(info.bytes);
      payload != nullptr && cost_s > 0) {
    // Simulated disk-link cost on top of the real file read (see
    // sys/server.h's host-link rationale: modeled hardware sleeps for the
    // time the real transfer would take, overlapping across threads).
    std::this_thread::sleep_for(std::chrono::duration<double>(cost_s));
  }
  disk_stall_us_.inc(elapsed_us(t0));

  std::unique_lock lock(mutex_);
  // The record may have been administratively erased (or replaced) while
  // we read; only account transitions for a record that is still ours.
  auto sit = spilled_.find(key);
  const bool record_live =
      sit != spilled_.end() && sit->second.path == info.path;
  if (payload == nullptr) {
    if (record_live) {
      drop_spill_locked(sit, /*count_eviction=*/false);
      disk_read_failures_.inc();
    }
    return {};
  }
  if (record_live) {
    drop_spill_locked(sit, /*count_eviction=*/false);
    disk_faults_.inc();
    // A fault-in on the serve path is latency the prefetcher failed to
    // hide; a prefetcher fault-in is the pipeline doing its job.
    if (!prefetching) disk_prefetch_misses_.inc();
  }
  try {
    // Host-first: disk bytes surface as host-resident, so the serve path
    // charges them through the LinkModel like any host-tier module.
    const ModuleLocation loc = place_locked(key, payload,
                                            /*pins=*/and_pin ? 1 : 0,
                                            PlacePref::kHostFirst);
    auto eit = entries_.find(key);
    if (eit != entries_.end()) eit->second.prefetched = prefetching;
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
  SpillInfo spill;
  for (;;) {
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock lock(mutex_);
      if (ModuleRef ref = lookup_locked(key, and_pin)) return ref;
      auto sit = spilled_.find(key);
      if (!encode && sit == spilled_.end()) {
        // Nothing to encode and nothing to fault in: a miss, without
        // waiting on another caller's encode.
        cells_.misses.inc();
        return {};
      }
      auto fit = in_flight_.find(key);
      if (fit == in_flight_.end()) {
        // This caller is the leader for the key.
        flight = std::make_shared<Flight>();
        in_flight_.emplace(key, flight);
        if (sit != spilled_.end()) spill = sit->second;
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
    ModuleRef ref = fault_in(key, std::move(spill), and_pin,
                             /*prefetching=*/false);
    if (ref) {
      finish_flight(key);
      cells_.hits.inc();  // a disk hit: no encode was needed
      return ref;
    }
  }
  cells_.misses.inc();
  if (!encode) {
    // The read failed and dropped the record: a miss, as for an entry
    // destroyed outright.
    finish_flight(key);
    return {};
  }

  // The forward pass runs with the store lock released, so other keys stay
  // fully available meanwhile.
  std::shared_ptr<const EncodedModule> payload;
  ModuleLocation loc;
  try {
    payload = std::make_shared<const EncodedModule>(encode());
    std::unique_lock lock(mutex_);
    loc = place_locked(key, payload, /*pins=*/and_pin ? 1 : 0);
  } catch (...) {
    finish_flight(key);
    throw;
  }
  finish_flight(key);
  if (encoded_here != nullptr) *encoded_here = true;
  // The ref is built from the leader's own payload pointer: valid even if
  // the entry was already evicted again by a racing insert.
  return ModuleRef(std::move(payload), loc);
}

void SharedModuleStore::finish_flight(const std::string& key) {
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock lock(mutex_);
    auto it = in_flight_.find(key);
    PC_CHECK_MSG(it != in_flight_.end(), "single-flight entry vanished");
    flight = std::move(it->second);
    in_flight_.erase(it);
  }
  {
    std::lock_guard fl(flight->mutex);
    flight->done = true;
  }
  flight->cv.notify_all();
}

void SharedModuleStore::insert(const std::string& key, EncodedModule module) {
  auto payload = std::make_shared<const EncodedModule>(std::move(module));
  std::unique_lock lock(mutex_);
  (void)place_locked(key, std::move(payload), /*pins=*/0);
}

ModuleLocation SharedModuleStore::place_locked(
    const std::string& key,
    std::shared_ptr<const EncodedModule> module, int pins, PlacePref pref) {
  // Replace semantics: free the old entry first, carrying its pin count
  // over (live borrowers keep the old payload alive through their refs).
  auto old = entries_.find(key);
  if (old != entries_.end()) {
    pins += old->second.pin_count;
    erase_locked(old);
  }
  // A (re)placed key obsoletes any spill record still on disk for it — a
  // stale record must never fault in over newer content.
  if (auto srec = spilled_.find(key); srec != spilled_.end()) {
    drop_spill_locked(srec, /*count_eviction=*/true);
  }

  const size_t bytes = module->payload_bytes();
  const ModuleLocation first = pref == PlacePref::kDeviceFirst
                                   ? ModuleLocation::kDeviceMemory
                                   : ModuleLocation::kHostMemory;
  const ModuleLocation second = pref == PlacePref::kDeviceFirst
                                    ? ModuleLocation::kHostMemory
                                    : ModuleLocation::kDeviceMemory;
  ModuleLocation loc;
  if (tiers_.can_fit(first, bytes)) {
    loc = first;
  } else if (tiers_.can_fit(second, bytes)) {
    loc = second;
  } else if (make_room_locked(first, bytes)) {
    loc = first;
  } else if (make_room_locked(second, bytes)) {
    loc = second;
  } else {
    // Name the obstacle, since each has a different fix: pinned entries
    // holding the room of a tier the module fits, or tiers smaller than
    // the module.
    const std::string what =
        "module '" + key + "' (" + std::to_string(bytes) + " bytes) ";
    if (bytes <= tiers_.usage(ModuleLocation::kDeviceMemory).capacity_bytes ||
        bytes <= tiers_.usage(ModuleLocation::kHostMemory).capacity_bytes) {
      throw CacheError(what +
                       "does not fit in any memory tier: the room it needs "
                       "is held by pinned entries");
    }
    throw CacheError(what + "is larger than every memory tier");
  }
  tiers_.charge(loc, bytes);
  obs::Gauge* format_gauge = &cells_.resident_bytes_fp32;
  if (module->precision == StorePrecision::kQ8) {
    format_gauge = &cells_.resident_bytes_q8;
  } else if (module->precision == StorePrecision::kQ4) {
    format_gauge = &cells_.resident_bytes_q4;
  }
  entries_.emplace(key, Entry{std::move(module), loc, pins, tick(),
                              /*prefetched=*/false});
  cells_.insertions.inc();
  cells_.resident_bytes.add(static_cast<int64_t>(bytes));
  note_resident_peak();
  format_gauge->add(static_cast<int64_t>(bytes));
  if (pins > 0) cells_.pinned_entries.add(1);
  return loc;
}

bool SharedModuleStore::make_room_locked(ModuleLocation loc, size_t bytes) {
  const TierUsage& u = tiers_.usage(loc);
  if (!u.unlimited() && bytes > u.capacity_bytes) return false;
  while (!tiers_.can_fit(loc, bytes)) {
    // Victim: the coldest unpinned entry resident in this tier.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.location != loc || it->second.pin_count > 0) continue;
      if (victim == entries_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return false;  // nothing evictable left

    // Device victims demote to host when it has room (encoded states are
    // expensive to recompute and host is the abundant tier, §4.1).
    const size_t vbytes = victim->second.module->payload_bytes();
    if (loc == ModuleLocation::kDeviceMemory &&
        tiers_.can_fit(ModuleLocation::kHostMemory, vbytes)) {
      tiers_.credit(loc, vbytes);
      tiers_.charge(ModuleLocation::kHostMemory, vbytes);
      victim->second.location = ModuleLocation::kHostMemory;
      cells_.demotions.inc();
    } else if (spill_locked(victim)) {
      // The victim left RAM for the disk tier instead of being destroyed;
      // a later lookup faults it back in byte-exact.
    } else {
      erase_locked(victim);
      cells_.evictions.inc();
    }
  }
  return true;
}

bool SharedModuleStore::spill_locked(
    std::unordered_map<std::string, Entry>::iterator victim) {
  if (spill_dir_.empty()) return false;
  const size_t bytes = victim->second.module->payload_bytes();
  if (!make_disk_room_locked(bytes)) return false;
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
  if (auto old = spilled_.find(victim->first); old != spilled_.end()) {
    drop_spill_locked(old, /*count_eviction=*/true);
  }
  spilled_.emplace(victim->first,
                   SpillInfo{path, bytes, victim->second.last_used});
  disk_usage_.used_bytes += bytes;
  disk_spills_.inc();
  disk_spilled_bytes_.add(static_cast<int64_t>(bytes));
  erase_locked(victim);
  return true;
}

bool SharedModuleStore::make_disk_room_locked(size_t bytes) {
  if (disk_usage_.unlimited()) return true;
  if (bytes > disk_usage_.capacity_bytes) return false;
  while (bytes > disk_usage_.capacity_bytes - disk_usage_.used_bytes) {
    // Victim: the coldest spilled record without an active flight (a file
    // mid-fault-in must not be deleted under the reader).
    auto victim = spilled_.end();
    for (auto it = spilled_.begin(); it != spilled_.end(); ++it) {
      if (in_flight_.contains(it->first)) continue;
      if (victim == spilled_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == spilled_.end()) return false;
    drop_spill_locked(victim, /*count_eviction=*/true);
  }
  return true;
}

void SharedModuleStore::drop_spill_locked(
    std::unordered_map<std::string, SpillInfo>::iterator it,
    bool count_eviction) {
  PC_CHECK_MSG(disk_usage_.used_bytes >= it->second.bytes,
               "disk tier under-flow");
  disk_usage_.used_bytes -= it->second.bytes;
  disk_spilled_bytes_.sub(static_cast<int64_t>(it->second.bytes));
  std::error_code ec;
  std::filesystem::remove(it->second.path, ec);  // best-effort
  if (count_eviction) disk_evictions_.inc();
  spilled_.erase(it);
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
    std::unordered_map<std::string, Entry>::iterator it) {
  const size_t bytes = it->second.module->payload_bytes();
  tiers_.credit(it->second.location, bytes);
  cells_.resident_bytes.sub(static_cast<int64_t>(bytes));
  obs::Gauge* format_gauge = &cells_.resident_bytes_fp32;
  if (it->second.module->precision == StorePrecision::kQ8) {
    format_gauge = &cells_.resident_bytes_q8;
  } else if (it->second.module->precision == StorePrecision::kQ4) {
    format_gauge = &cells_.resident_bytes_q4;
  }
  format_gauge->sub(static_cast<int64_t>(bytes));
  if (it->second.pin_count > 0) cells_.pinned_entries.sub(1);
  entries_.erase(it);
}

bool SharedModuleStore::contains(const std::string& key) const {
  std::shared_lock lock(mutex_);
  return entries_.contains(key) || spilled_.contains(key);
}

bool SharedModuleStore::pin(const std::string& key) {
  std::unique_lock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  if (++it->second.pin_count == 1) cells_.pinned_entries.add(1);
  return true;
}

bool SharedModuleStore::unpin(const std::string& key) {
  std::unique_lock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.pin_count == 0) return false;
  if (--it->second.pin_count == 0) cells_.pinned_entries.sub(1);
  return true;
}

bool SharedModuleStore::is_pinned(const std::string& key) const {
  return pin_count(key) > 0;
}

int SharedModuleStore::pin_count(const std::string& key) const {
  std::shared_lock lock(mutex_);
  auto it = entries_.find(key);
  return it == entries_.end() ? 0 : it->second.pin_count;
}

bool SharedModuleStore::promote(const std::string& key, ModuleLocation target,
                                bool* moved) {
  if (moved != nullptr) *moved = false;
  std::unique_lock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  Entry& e = it->second;
  if (e.location == target) return true;
  const size_t bytes = e.module->payload_bytes();
  // make_room may evict entries but never this one (it is in the other
  // tier, and pinned entries are skipped anyway).
  if (!make_room_locked(target, bytes)) return false;
  tiers_.credit(e.location, bytes);
  tiers_.charge(target, bytes);
  e.location = target;
  cells_.promotions.inc();
  if (moved != nullptr) *moved = true;
  return true;
}

void SharedModuleStore::erase(const std::string& key) {
  std::unique_lock lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) erase_locked(it);
  if (auto sit = spilled_.find(key); sit != spilled_.end()) {
    drop_spill_locked(sit, /*count_eviction=*/true);
  }
}

void SharedModuleStore::clear() {
  std::unique_lock lock(mutex_);
  while (!entries_.empty()) erase_locked(entries_.begin());
  while (!spilled_.empty()) {
    drop_spill_locked(spilled_.begin(), /*count_eviction=*/true);
  }
}

void SharedModuleStore::for_each(
    const std::function<void(const std::string& key,
                             const EncodedModule& module,
                             ModuleLocation location)>& fn) const {
  std::shared_lock lock(mutex_);
  for (const auto& [key, entry] : entries_) {
    fn(key, *entry.module, entry.location);
  }
}

size_t SharedModuleStore::size() const {
  std::shared_lock lock(mutex_);
  return entries_.size();
}

size_t SharedModuleStore::spilled_count() const {
  std::shared_lock lock(mutex_);
  return spilled_.size();
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
  std::shared_lock lock(mutex_);
  return tiers_.usage(loc);
}

size_t SharedModuleStore::resident_bytes() const {
  std::shared_lock lock(mutex_);
  return tiers_.usage(ModuleLocation::kDeviceMemory).used_bytes +
         tiers_.usage(ModuleLocation::kHostMemory).used_bytes;
}

}  // namespace pc
