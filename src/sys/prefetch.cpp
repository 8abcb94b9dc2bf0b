#include "sys/prefetch.h"

#include "common/error.h"
#include "obs/trace.h"

namespace pc {

StorePrefetcher::StorePrefetcher(const PromptCacheEngine& engine,
                                 PrefetcherConfig config)
    : engine_(engine), config_(config) {
  PC_CHECK_MSG(config_.depth > 0, "StorePrefetcher depth must be > 0");
  thread_ = std::thread([this] { loop(); });
}

StorePrefetcher::~StorePrefetcher() { stop(); }

void StorePrefetcher::enqueue(const std::string& prompt) {
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    prompts_.fetch_add(1, std::memory_order_relaxed);
    while (queue_.size() >= config_.depth) {
      // Over depth: the oldest prompt is the stalest — its request is the
      // closest to (or already in) service, where a demand fault-in has
      // likely beaten any prefetch we could still issue.
      queue_.pop_front();
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    queue_.push_back(prompt);
  }
  cv_work_.notify_one();
}

void StorePrefetcher::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    stop_ = true;
    queue_.clear();  // best-effort pipeline: drop, don't finish
  }
  cv_work_.notify_all();
  if (thread_.joinable()) thread_.join();
}

StorePrefetcher::Stats StorePrefetcher::stats() const {
  Stats s;
  s.prompts = prompts_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.keys_issued = keys_issued_.load(std::memory_order_relaxed);
  s.keys_resident = keys_resident_.load(std::memory_order_relaxed);
  s.bind_errors = bind_errors_.load(std::memory_order_relaxed);
  return s;
}

void StorePrefetcher::loop() {
  obs::set_thread_name("prefetcher");
  SharedModuleStore& store = engine_.store();
  for (;;) {
    std::string prompt;
    {
      std::unique_lock lock(mutex_);
      cv_work_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      prompt = std::move(queue_.front());
      queue_.pop_front();
    }
    PC_SPAN("prefetch_prompt");
    try {
      const auto binding = engine_.bind(prompt);
      for (const std::string& key : engine_.module_keys(binding)) {
        keys_issued_.fetch_add(1, std::memory_order_relaxed);
        if (store.prefetch(key)) {
          keys_resident_.fetch_add(1, std::memory_order_relaxed);
        }
        // A stop request mid-working-set stops promptly (a deep schema can
        // have many modules and each fault-in is a disk read).
        std::lock_guard lock(mutex_);
        if (stop_) return;
      }
    } catch (const Error&) {
      // Malformed prompt or unknown schema: the serve path will report it
      // properly; the pipeline just skips it.
      bind_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

}  // namespace pc
