#include "obs/trace.h"

#if PC_OBS_ENABLED

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace pc::obs {

namespace {

// Single-writer ring. The owning thread is the only writer; readers
// (collect_traces) take a weakly consistent snapshot through the atomic
// head. Slots are overwritten on wrap — dropped = head - capacity. The
// slot array is allocated by the first push, so a thread that registers
// (set_thread_name) but never records costs no ring memory; readers touch
// `slots` only after an acquire load of head reads above 0, which orders
// them after that allocation.
struct Ring {
  explicit Ring(size_t capacity) : capacity(capacity) {}

  const size_t capacity;
  std::unique_ptr<TraceEvent[]> slots;  // written once, by the first push
  std::atomic<uint64_t> head{0};  // total events ever written
  int tid = 0;
  std::string thread_name;  // guarded by the registry mutex

  void push(const TraceEvent& e) {
    if (slots == nullptr) slots.reset(new TraceEvent[capacity]);
    const uint64_t h = head.load(std::memory_order_relaxed);
    slots[h % capacity] = e;
    head.store(h + 1, std::memory_order_release);
  }
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<Ring>> rings;  // survive thread exit
  std::atomic<size_t> ring_capacity{default_capacity()};

  static size_t default_capacity() {
    if (const char* v = std::getenv("PC_TRACE_BUF")) {
      const long n = std::atol(v);
      if (n > 0) return static_cast<size_t>(n);
    }
    return 65536;
  }

  static Registry& get() {
    static Registry* r = new Registry;  // leaked: usable during exit
    return *r;
  }
};

int from_env_enabled() {
  const char* v = std::getenv("PC_TRACE");
  return (v != nullptr && *v != '\0') ? 1 : 0;
}

std::atomic<int> g_enabled{from_env_enabled()};

Ring& thread_ring() {
  thread_local std::shared_ptr<Ring> ring = [] {
    Registry& reg = Registry::get();
    auto r = std::make_shared<Ring>(
        reg.ring_capacity.load(std::memory_order_relaxed));
    std::lock_guard lock(reg.mutex);
    r->tid = static_cast<int>(reg.rings.size());
    r->thread_name = "thread-" + std::to_string(r->tid);
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

}  // namespace

bool tracing_enabled() {
  return g_enabled.load(std::memory_order_relaxed) != 0;
}

void set_tracing(bool enabled) {
  g_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void set_thread_name(const std::string& name) {
  Ring& ring = thread_ring();
  std::lock_guard lock(Registry::get().mutex);
  ring.thread_name = name;
}

void set_ring_capacity(size_t events) {
  if (events == 0) events = 1;
  Registry::get().ring_capacity.store(events, std::memory_order_relaxed);
}

namespace detail {

bool tracing_enabled_impl() { return tracing_enabled(); }

void record_span_impl(const char* name, uint64_t start_ns, uint64_t end_ns,
                      SpanArg a0, SpanArg a1) {
  TraceEvent e;
  e.name = name;
  e.start_ns = start_ns;
  e.end_ns = end_ns;
  e.args[0] = a0;
  e.args[1] = a1;
  thread_ring().push(e);
}

void record_event_impl(EventKind kind, const char* name, uint64_t ts_ns,
                       uint32_t flow_id, SpanArg a0, SpanArg a1) {
  TraceEvent e;
  e.name = name;
  e.start_ns = ts_ns;
  e.end_ns = ts_ns;
  e.args[0] = a0;
  e.args[1] = a1;
  e.flow_id = flow_id;
  e.kind = kind;
  thread_ring().push(e);
}

}  // namespace detail

std::vector<ThreadTrace> collect_traces() {
  Registry& reg = Registry::get();
  std::vector<std::shared_ptr<Ring>> rings;
  std::vector<ThreadTrace> out;
  {
    std::lock_guard lock(reg.mutex);
    rings = reg.rings;
    out.reserve(rings.size());
    for (const auto& r : rings) {
      ThreadTrace t;
      t.tid = r->tid;
      t.name = r->thread_name;
      out.push_back(std::move(t));
    }
  }
  for (size_t i = 0; i < rings.size(); ++i) {
    const Ring& r = *rings[i];
    const uint64_t head = r.head.load(std::memory_order_acquire);
    if (head == 0) continue;  // nothing recorded: slots may not exist
    const uint64_t n = std::min<uint64_t>(head, r.capacity);
    out[i].dropped = head - n;
    out[i].events.reserve(static_cast<size_t>(n));
    for (uint64_t k = head - n; k < head; ++k) {
      out[i].events.push_back(r.slots[k % r.capacity]);
    }
  }
  return out;
}

uint64_t dropped_events() {
  Registry& reg = Registry::get();
  std::lock_guard lock(reg.mutex);
  uint64_t total = 0;
  for (const auto& r : reg.rings) {
    const uint64_t head = r->head.load(std::memory_order_acquire);
    if (head > r->capacity) total += head - r->capacity;
  }
  return total;
}

void clear_traces() {
  Registry& reg = Registry::get();
  std::lock_guard lock(reg.mutex);
  for (const auto& r : reg.rings) {
    r->head.store(0, std::memory_order_release);
  }
}

}  // namespace pc::obs

#endif  // PC_OBS_ENABLED
