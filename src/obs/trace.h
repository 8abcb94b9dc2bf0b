// Low-overhead span tracing: RAII PC_SPAN markers writing fixed-size events
// into lock-free thread-local ring buffers on the shared epoch clock
// (obs/clock.h).
//
// Design:
//
//   * One event per completed span. A span records nothing at entry; the
//     destructor writes a single 64-byte TraceEvent (name, start, end, up
//     to two integer args) into the calling thread's ring. Nesting needs no
//     bookkeeping — spans on one thread close in LIFO order, so intervals
//     are strictly nested by construction and Perfetto reconstructs the
//     tree from timestamps alone.
//
//   * Thread-local single-writer rings. Each thread lazily registers a
//     fixed-capacity ring buffer; writes are one relaxed index load, one
//     64-byte store, one release index store — no locks, no allocation, no
//     cross-thread traffic on the hot path. When the ring wraps, the oldest
//     events are overwritten and counted as dropped (never a crash, never a
//     stall). Rings outlive their threads (the registry keeps them), so a
//     server can be stopped before its trace is exported.
//
//   * Runtime gate, compile-time floor. tracing_enabled() is one relaxed
//     atomic load; disabled spans skip the clock reads entirely. Building
//     with -DPC_OBS=OFF (PC_OBS_ENABLED=0) compiles PC_SPAN to nothing and
//     Span/record_span to empty inlines: zero events, zero argument
//     evaluation, zero code in the hot paths.
//
// Collection (collect_traces / trace.cpp) is weakly consistent: reading
// while writers are active may observe partially ordered tails. Export
// while the instrumented work is idle (after Server::drain()) for exact
// traces. Span names and arg keys must be string literals (or otherwise
// outlive collection) — events store the pointers, not copies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.h"

#ifndef PC_OBS_ENABLED
#define PC_OBS_ENABLED 1
#endif

namespace pc::obs {

// A named integer attachment to a span ("request", 42). key == nullptr
// means "no arg".
struct SpanArg {
  const char* key = nullptr;
  int64_t value = 0;
};

// What one TraceEvent represents. kSpan is the classic duration event;
// kInstant marks a point in time (fault injections, drops); the kFlow*
// kinds are Perfetto flow events ("s"/"t"/"f") that stitch one request's
// spans across threads into a single followable arc, correlated by
// flow_id (the request id).
enum class EventKind : uint8_t {
  kSpan = 0,
  kInstant,
  kFlowStart,
  kFlowStep,
  kFlowEnd,
};

// One completed span. 64 bytes; name/arg keys are unowned literals.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanArg args[2];
  uint32_t flow_id = 0;  // meaningful for the kFlow* kinds
  EventKind kind = EventKind::kSpan;
};
static_assert(sizeof(TraceEvent) <= 64, "TraceEvent must stay one line");

// Everything recorded by one thread, in completion order (oldest first).
struct ThreadTrace {
  int tid = 0;             // registration order, stable for the process
  std::string name;        // "main", "lane3", "pool1", or "thread-N"
  uint64_t dropped = 0;    // events overwritten by ring wrap
  std::vector<TraceEvent> events;
};

#if PC_OBS_ENABLED

namespace detail {
bool tracing_enabled_impl();
void record_span_impl(const char* name, uint64_t start_ns, uint64_t end_ns,
                      SpanArg a0, SpanArg a1);
void record_event_impl(EventKind kind, const char* name, uint64_t ts_ns,
                       uint32_t flow_id, SpanArg a0, SpanArg a1);
}  // namespace detail

// Global runtime switch. Defaults to off unless the PC_TRACE environment
// variable is set (any non-empty value; a path value doubles as the export
// destination for harnesses that honor it).
bool tracing_enabled();
void set_tracing(bool enabled);

// Names the calling thread's lane in exported traces (idempotent; also
// forces ring registration so the lane exists even before its first span).
void set_thread_name(const std::string& name);

// Ring capacity (events per thread) for rings created after this call.
// Also settable via PC_TRACE_BUF; default 65536. Existing rings keep theirs.
void set_ring_capacity(size_t events);

// Records an explicit span on the calling thread's ring. Prefer PC_SPAN;
// this exists for retroactive intervals measured by other means. Caution:
// a retroactive interval can overlap RAII spans on the same thread, which
// breaks per-lane nesting in the rendered trace.
inline void record_span(const char* name, uint64_t start_ns, uint64_t end_ns,
                        SpanArg a0 = {}, SpanArg a1 = {}) {
  detail::record_span_impl(name, start_ns, end_ns, a0, a1);
}

// Records a point-in-time marker on the calling thread's ring (rendered as
// a Perfetto instant event). Used for fault injections and other
// zero-duration occurrences worth seeing on the timeline.
inline void record_instant(const char* name, SpanArg a0 = {}, SpanArg a1 = {}) {
  if (!tracing_enabled()) return;
  detail::record_event_impl(EventKind::kInstant, name, now_ns(), 0, a0, a1);
}

// Records one leg of a cross-thread flow arc. All legs sharing (name, id)
// are bound into one arrow chain by the Perfetto UI; `id` is truncated to
// 32 bits (request ids are submission indices, so this never collides in
// practice). Use through PC_FLOW_START / PC_FLOW_STEP / PC_FLOW_END.
inline void record_flow(EventKind kind, const char* name, uint64_t id) {
  if (!tracing_enabled()) return;
  detail::record_event_impl(kind, name, now_ns(),
                            static_cast<uint32_t>(id), {}, {});
}

// RAII span. Construction snapshots the clock iff tracing is enabled; the
// destructor writes the event. Use through PC_SPAN.
class Span {
 public:
  explicit Span(const char* name, SpanArg a0 = {}, SpanArg a1 = {}) {
    if (tracing_enabled()) {
      name_ = name;
      a0_ = a0;
      a1_ = a1;
      start_ns_ = now_ns();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      detail::record_span_impl(name_, start_ns_, now_ns(), a0_, a1_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attaches/overwrites an arg after construction (value known mid-span).
  void set_arg(const char* key, int64_t value) {
    if (name_ == nullptr) return;
    if (a0_.key == nullptr || std::string_view(a0_.key) == key) {
      a0_ = {key, value};
    } else {
      a1_ = {key, value};
    }
  }

 private:
  const char* name_ = nullptr;  // nullptr = disabled at construction
  uint64_t start_ns_ = 0;
  SpanArg a0_{}, a1_{};
};

// Snapshot of every thread's ring (including exited threads'), oldest
// event first per thread. Weakly consistent while writers are active.
std::vector<ThreadTrace> collect_traces();

// Total events lost to ring wrap across all threads.
uint64_t dropped_events();

// Empties every ring and resets drop counts (thread registrations and
// names survive). Call only while instrumented code is idle.
void clear_traces();

#else  // !PC_OBS_ENABLED — the whole layer compiles to nothing.

inline bool tracing_enabled() { return false; }
inline void set_tracing(bool) {}
inline void set_thread_name(const std::string&) {}
inline void set_ring_capacity(size_t) {}
inline void record_span(const char*, uint64_t, uint64_t, SpanArg = {},
                        SpanArg = {}) {}
inline void record_instant(const char*, SpanArg = {}, SpanArg = {}) {}
inline void record_flow(EventKind, const char*, uint64_t) {}

class Span {
 public:
  explicit Span(const char*, SpanArg = {}, SpanArg = {}) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_arg(const char*, int64_t) {}
};

inline std::vector<ThreadTrace> collect_traces() { return {}; }
inline uint64_t dropped_events() { return 0; }
inline void clear_traces() {}

#endif  // PC_OBS_ENABLED

}  // namespace pc::obs

#define PC_OBS_CONCAT_INNER(a, b) a##b
#define PC_OBS_CONCAT(a, b) PC_OBS_CONCAT_INNER(a, b)

#if PC_OBS_ENABLED
// PC_SPAN("name"), PC_SPAN("name", {"key", v}), PC_SPAN("name", {...}, {...}).
// Scope = the enclosing block. Arguments are not evaluated when built with
// PC_OBS=OFF, so span-only computation must stay trivial.
#define PC_SPAN(...) \
  ::pc::obs::Span PC_OBS_CONCAT(pc_obs_span_, __COUNTER__)(__VA_ARGS__)
// Named span handle for set_arg() after construction.
#define PC_SPAN_NAMED(var, ...) ::pc::obs::Span var(__VA_ARGS__)
// Point-in-time marker: PC_INSTANT("fault_inject_link", {"request", id}).
#define PC_INSTANT(...) ::pc::obs::record_instant(__VA_ARGS__)
// Cross-thread flow arc for one request: start where the request is born
// (submit), step/end where it is picked up (a lane's batch admit).
#define PC_FLOW_START(name, id) \
  ::pc::obs::record_flow(::pc::obs::EventKind::kFlowStart, name, id)
#define PC_FLOW_STEP(name, id) \
  ::pc::obs::record_flow(::pc::obs::EventKind::kFlowStep, name, id)
#define PC_FLOW_END(name, id) \
  ::pc::obs::record_flow(::pc::obs::EventKind::kFlowEnd, name, id)
#else
#define PC_SPAN(...) ((void)0)
#define PC_SPAN_NAMED(var, ...) ::pc::obs::Span var("")
#define PC_INSTANT(...) ((void)0)
#define PC_FLOW_START(name, id) ((void)0)
#define PC_FLOW_STEP(name, id) ((void)0)
#define PC_FLOW_END(name, id) ((void)0)
#endif
