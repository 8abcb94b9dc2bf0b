// Async disk-tier prefetch pipeline (docs/INTERNALS.md §15).
//
// With a RAM-capped SharedModuleStore, cold modules live in spill files and
// a request whose working set was spilled pays a synchronous disk fault-in
// on its serve path. StorePrefetcher hides that latency by overlapping the
// disk reads with whatever the lanes are already doing: a background
// thread binds each submitted prompt through the Server's engine
// (PromptCacheEngine::bind + module_keys — pure parsing, no store access,
// no encoding) and calls SharedModuleStore::prefetch() on every key of the
// engine's store, faulting spilled payloads back into RAM while earlier
// requests are still decoding. By the time the request reaches a lane, its
// modules are resident and the serve path sees ordinary hits.
//
// This is classic double-buffering: the queue holds at most `depth`
// prompts (2-3 — the next requests to be admitted), so the prefetcher
// works exactly one admission window ahead of the lanes. When it falls
// behind, the OLDEST queued prompt is dropped, not the newest: the oldest
// is the one most likely to already be in service, where a demand fault-in
// has beaten any prefetch to the disk.
//
// Correctness is free: prefetch() shares the per-key single-flight Flight
// map with find()/ensure(), so a prefetch racing a demand fault-in or an
// encode leader dedups to one disk read, and a prefetch that loses every
// race is a no-op. The pipeline is pure latency optimization — stopping it
// (or never starting it) changes no served byte.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "core/engine.h"

namespace pc {

struct PrefetcherConfig {
  // Max prompts buffered ahead of the lanes (the double/triple-buffer
  // depth). Beyond it the oldest queued prompt is dropped as stale.
  size_t depth = 2;
};

class StorePrefetcher {
 public:
  struct Stats {
    uint64_t prompts = 0;        // prompts accepted by enqueue()
    uint64_t dropped = 0;        // stale prompts dropped (queue over depth)
    uint64_t keys_issued = 0;    // store.prefetch() calls
    uint64_t keys_resident = 0;  // prefetch() returned true (resident or
                                 // faulted in or already in flight)
    uint64_t bind_errors = 0;    // prompts skipped (parse/validation error)
  };

  // Binds prompts with `engine` (schemas loaded; a Server passes the one
  // its lanes serve through) and faults their keys into the engine's
  // store. The engine must outlive the prefetcher.
  StorePrefetcher(const PromptCacheEngine& engine, PrefetcherConfig config);
  ~StorePrefetcher();  // calls stop()

  StorePrefetcher(const StorePrefetcher&) = delete;
  StorePrefetcher& operator=(const StorePrefetcher&) = delete;

  // Hands a submitted prompt to the pipeline. Non-blocking: over-depth
  // backlog sheds the oldest queued prompt. Safe to call under an outer
  // lock (the internal mutex is leaf-level and never calls out).
  void enqueue(const std::string& prompt);

  // Stops the thread at its next key, mid-prompt if need be; queued
  // prompts are dropped (prefetch is best-effort — nothing is lost but
  // warmth). Nothing waits for the queue to empty. Idempotent.
  void stop();

  Stats stats() const;

 private:
  void loop();

  const PromptCacheEngine& engine_;
  PrefetcherConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;
  std::deque<std::string> queue_;
  bool stop_ = false;

  std::atomic<uint64_t> prompts_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> keys_issued_{0};
  std::atomic<uint64_t> keys_resident_{0};
  std::atomic<uint64_t> bind_errors_{0};

  std::thread thread_;
};

}  // namespace pc
