#include "sys/prefetch.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace pc {

StorePrefetcher::StorePrefetcher(const Model& model,
                                 const TextTokenizer& tokenizer,
                                 SharedModuleStore& store,
                                 PrefetcherConfig config)
    : model_(model),
      tokenizer_(tokenizer),
      store_(store),
      config_(std::move(config)) {
  PC_CHECK_MSG(config_.depth > 0, "StorePrefetcher depth must be > 0");
  thread_ = std::thread([this] { loop(); });
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [&] { return ready_; });
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

void StorePrefetcher::drain() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [&] { return queue_.empty() && !working_; });
}

void StorePrefetcher::stop() {
  {
    std::lock_guard lock(mutex_);
    if (stop_) return;
    stop_ = true;
    queue_.clear();  // best-effort pipeline: drop, don't finish
  }
  cv_work_.notify_all();
  cv_idle_.notify_all();
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
  // The binder engine is built on this thread, like a lane's. It only
  // maps prompts to store keys (bind + module_keys), which depend on
  // neither store nor precision, so it owns an empty store and skips the
  // eager encode: the lanes encode the schemas, into the store they
  // serve from, and this engine runs no forward pass.
  EngineConfig binder_config;
  binder_config.eager_encode = false;
  PromptCacheEngine binder(model_, tokenizer_, binder_config);
  for (const std::string& pml : config_.schemas) {
    try {
      binder.load_schema(pml);
    } catch (const Error& e) {
      // Prefetch is best-effort: prompts of a schema the binder could not
      // load count as bind errors.
      PC_LOG_WARN << "prefetcher: schema load failed (" << e.what()
                  << "); binding continues";
    }
  }
  {
    std::lock_guard lock(mutex_);
    ready_ = true;
  }
  cv_idle_.notify_all();

  for (;;) {
    std::string prompt;
    {
      std::unique_lock lock(mutex_);
      working_ = false;
      if (queue_.empty()) cv_idle_.notify_all();
      cv_work_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      prompt = std::move(queue_.front());
      queue_.pop_front();
      working_ = true;
    }
    PC_SPAN("prefetch_prompt");
    try {
      const auto binding = binder.bind(prompt);
      for (const std::string& key : binder.module_keys(binding)) {
        keys_issued_.fetch_add(1, std::memory_order_relaxed);
        if (store_.prefetch(key)) {
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
