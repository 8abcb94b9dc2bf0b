// Serving-layer vocabulary shared by the Server frontend (sys/server.h)
// and the continuous-batching scheduler each of its lanes runs
// (sys/batch.h): the request outcome taxonomy, the response record and the
// transient-fault retry policy (the simulated host link, LinkModel, lives
// in sys/memory_tier.h beside the tiers it moves bytes between). Split out
// so the scheduler can speak the same types without depending on the
// Server.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sys/memory_tier.h"

namespace pc {

// Outcome taxonomy for a served request (see sys/server.h for the full
// lifecycle description).
enum class ServeStatus {
  kOk = 0,
  kDegraded,  // full-prefill fallback: same tokens, degraded TTFT
  kTimeout,   // deadline expired mid-service; work was cancelled
  kShed,      // rejected before service (queued past deadline / backlog)
  kFailed,    // non-transient error
};

const char* to_string(ServeStatus s);

// True for the statuses that return generated tokens to the caller.
inline bool is_served(ServeStatus s) {
  return s == ServeStatus::kOk || s == ServeStatus::kDegraded;
}

// Bounded retry for transient faults (pc::TransientError): attempt
// `1 + max_retries` serves, sleeping backoff_base_ms * 2^attempt (capped at
// backoff_max_ms, scaled by a deterministic jitter in [0.5, 1.5)) between
// attempts. When retries are exhausted the server degrades to full prefill.
struct RetryPolicy {
  int max_retries = 2;
  double backoff_base_ms = 0.5;
  double backoff_max_ms = 20.0;
};

// The deterministic backoff schedule a lane waits between transient-fault
// retries (never past the request's deadline): backoff_base_ms *
// 2^attempt, capped at backoff_max_ms, scaled by a jitter in [0.5, 1.5)
// that is a pure function of (id, attempt) — lanes retrying the same key
// desynchronize without a shared RNG, and a given request replays the same
// schedule on any lane.
// Pinned by a golden test (tests/test_faults.cpp).
double retry_backoff_ms(const RetryPolicy& retry, uint64_t id, int attempt);

// Per-request submission controls beyond GenerateOptions, used by the
// shard router (sys/shard.h) and available to any caller of
// Server::submit. Plain submit(prompt, options, deadline) is the
// all-defaults case.
struct SubmitOptions {
  double deadline_ms = 0;  // 0 = the server's default deadline
  // Extra simulated host-link stall charged to this request (cross-shard
  // module fetches), slept by the serving lane alongside the regular
  // LinkModel stall so transfers overlap compute.
  double extra_stall_ms = 0;
  // Serve via the full-prefill degrade path directly (recorded as
  // kDegraded): the router uses this when every replica holding a
  // request's modules is down — tokens stay bitwise-identical, TTFT pays
  // the full forward pass.
  bool force_full_prefill = false;
  // Free-form note appended to the request's timeline annotations at
  // dequeue (routing decisions, failover provenance). Doubles as the
  // degrade detail when force_full_prefill is set.
  std::string annotation;
};

struct ServerResponse {
  uint64_t id = 0;    // submission order
  int worker = -1;    // lane that served it (-1 when shed at submit)
  ServeStatus status = ServeStatus::kOk;
  ServeResult result;     // meaningful iff is_served(status)
  double queue_ms = 0;    // submit -> dequeue
  double stall_ms = 0;    // simulated host-link transfer (LinkModel)
  double service_ms = 0;  // dequeue -> done (serve + stall)
  double ttft_ms = 0;     // end-to-end: queue + stall + engine TTFT
  int retries = 0;        // transient-fault retries spent on this request
  bool deadline_met = true;
  std::string detail;  // human-readable cause for non-kOk statuses

  // Request-timeline attribution (obs/request_timeline.h). module_misses
  // counts modules/scaffolds this request's own calls encoded (its ensure
  // passes and thrash re-encodes, over every admission attempt), so the
  // misses of all requests sum to the engine's encode counters;
  // prefill_chunks counts its chunked-prefill iterations. annotations are
  // free-form lifecycle notes (fault stalls, retries, degrade causes) in
  // occurrence order; only populated while request telemetry is enabled.
  int module_misses = 0;
  int prefill_chunks = 0;
  std::vector<std::string> annotations;
};

}  // namespace pc
