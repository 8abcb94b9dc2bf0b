// Cluster sharding with replicated module placement and shard-kill
// failover (docs/INTERNALS.md §14).
//
// A single Server tops out at one process's cores; the ROADMAP's
// millions-of-users north star needs a fleet. ShardRouter fronts N shards —
// each a full serving instance (SharedModuleStore + Server + a placement
// engine) — and makes the fleet behave like one cache:
//
//   * Placement. Modules are placed by consistent hashing on a
//     virtual-node ring: the first R distinct shards walking the ring from
//     hash(key) are the key's OWNERS and keep its encoded states pinned
//     resident (replication factor R). Ownership is static — it never
//     moves with liveness — so any two routers with the same config agree
//     on it, and a restarted shard re-acquires exactly its old keys.
//
//   * Routing. A request goes to the live shard owning the largest share
//     of its imported modules, discounted by queue pressure: each
//     outstanding request on a candidate costs half a module of affinity,
//     so a Zipf-hot prompt spills across its replicas (and, under enough
//     pressure, the whole fleet) instead of serializing on one owner.
//     Remaining ties break by a ring walk from the prompt hash, which both
//     determinizes and spreads no-module prompts. Any shard serves any
//     prompt bitwise-identically, so routing is purely a performance
//     decision. Modules the chosen shard lacks are fetched from a live
//     holder — payload copied
//     store-to-store, the transfer time charged through
//     ShardConfig::cross_link as extra stall on the request (overlapping
//     other requests' compute, like every LinkModel stall). Fetched
//     non-owned copies are streamed: dropped again once the request
//     completes (cache_cross_fetches keeps them instead), so fleet
//     footprint stays ~R × distinct module bytes instead of N ×.
//
//   * Failover. FaultPoint::kShardKill (PC_FAULTS "shardkill=rate[xN]")
//     kills a shard deterministically: its health epoch bumps, its
//     in-flight requests are flushed to the router's pump thread and
//     re-routed to a replica, and late deliveries from the zombie Server
//     carry a stale epoch and are dropped. When every replica holding a
//     request's modules is down, the request degrades to the existing
//     full-prefill path (Server's SubmitOptions::force_full_prefill) —
//     tokens stay bitwise-identical in every case, which the chaos suite
//     (tests/test_shard.cpp) asserts against an unsharded Server.
//
//   * Healing. A killed shard restarts (after restart_after_submits
//     submits, or restart_shard()) with an empty store; a background
//     replicator copies every owned module back from surviving holders
//     (re-encoding when no copy survived anywhere) so replication factor R
//     is restored without blocking serving.
//
// Counters land in the pc_shard_* registry family; availability feeds a
// router-level SloTracker so chaos runs can assert availability 1.0.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "core/shared_module_store.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "sys/server.h"

namespace pc {

struct ShardConfig {
  int n_shards = 2;
  // Replication factor: how many shards pin each module resident. Clamped
  // to n_shards. R >= 2 survives any single shard kill without degrading.
  int replication = 2;
  // Virtual nodes per shard on the placement ring. More vnodes = smoother
  // key balance; 64 keeps the max/min owned-key ratio near 1 for the
  // module counts this repo serves.
  int vnodes = 64;
  uint64_t ring_seed = 0x5eedULL;
  // Per-shard serving config. schemas/engine/link/retry and the lanes
  // (n_workers x batch.max_batch) all apply per shard; the router forces
  // retain_responses=false and installs its own on_record hook.
  // eager_encode is forced off — initial placement (the router's ctor)
  // encodes each module exactly once fleet-wide and copies it to the other
  // owners.
  ServerConfig server;
  // Per-shard store capacities (0 = unlimited). Owned modules are pinned,
  // so a limited tier must at least fit the shard's owned share.
  size_t device_capacity = 0;
  size_t host_capacity = 0;
  // Inter-shard interconnect: cross-shard module fetches and
  // re-replication copies are charged stall_s(bytes) through this model.
  LinkModel cross_link;
  // Keep cross-fetched non-owned copies resident (evictable) instead of
  // dropping them at request completion. Off by default: streaming keeps
  // fleet footprint at ~R × distinct bytes under skewed popularity.
  bool cache_cross_fetches = false;
  // Auto-restart a killed shard after this many router submits (0 = only
  // restart_shard() / the all-dead rescue restarts it).
  int restart_after_submits = 0;
  // Background re-replication cadence (0 = no thread; replicate_now()
  // still works, which is what the deterministic tests use).
  double replicate_interval_ms = 0;
  obs::SloConfig slo;  // router-level availability window
};

// A Server response plus its routing history.
struct ShardResponse {
  uint64_t id = 0;     // router id, == submission order
  int shard = -1;      // shard that produced the final response
  int failovers = 0;   // times this request was re-routed after a kill
  double failover_ms = 0;  // submit -> final dispatch (0 when unrouted)
  ServerResponse resp;     // resp.id is the shard-local id, not `id`
};

struct ShardStats {
  bool alive = true;
  uint64_t epoch = 0;     // health epoch: +1 per kill and per restart
  uint64_t routed = 0;    // requests dispatched here (incl. failovers)
  uint64_t kills = 0;
  size_t resident_bytes = 0;
};

struct ShardRouterStats {
  uint64_t submitted = 0;
  uint64_t delivered = 0;
  uint64_t completed = 0;  // is_served: ok + degraded
  uint64_t degraded = 0;
  uint64_t timeouts = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  uint64_t kills = 0;
  uint64_t restarts = 0;
  uint64_t failovers = 0;          // requests re-routed after a kill
  uint64_t cross_fetches = 0;      // modules copied shard-to-shard at serve
  uint64_t cross_fetch_bytes = 0;
  uint64_t rereplications = 0;     // healing copies (+ re-encodes)
  uint64_t unavailable_degrades = 0;  // all replicas down -> full prefill
  double availability = 1.0;       // served / delivered (1.0 when empty)
  double wall_ms = 0;              // first submit -> last delivery
  double throughput_rps = 0;
  size_t resident_bytes_total = 0;  // summed over live shards
  std::vector<ShardStats> shards;
};

// Routes requests across N sharded Servers; see the file comment.
// Thread-safe: submit()/drain()/kill_shard()/stats() may race freely.
class ShardRouter {
 public:
  ShardRouter(const Model& model, const TextTokenizer& tokenizer,
              ShardConfig config);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Routes and dispatches a request; returns the router-level id
  // (submission order). Polls FaultPoint::kShardKill once per submit —
  // chaos schedules advance with traffic, like every other fault point.
  uint64_t submit(std::string prompt, const GenerateOptions& options = {},
                  double deadline_ms = 0);

  // Blocks until every submitted request delivered a terminal response
  // (through any number of failovers), returns them sorted by id.
  std::vector<ShardResponse> drain();

  // Stops the pump/replicator threads and every shard Server. Idempotent;
  // the destructor calls it. Requests still in flight are completed first.
  void stop();

  ShardRouterStats stats() const;
  obs::SloTracker::Snapshot slo_snapshot() const { return slo_.snapshot(); }

  // Chaos / administrative controls ----------------------------------------

  // Kills a shard now: health epoch bumps, in-flight requests fail over.
  // No-op if already dead.
  void kill_shard(int shard);
  // Schedules a dead shard's restart on the pump thread (empty store; the
  // replicator re-pins its owned keys). No-op if alive. Does not block —
  // poll shard_alive() or call drain() to observe completion.
  void restart_shard(int shard);
  bool shard_alive(int shard) const;
  // One synchronous re-replication pass (the background thread's body) —
  // the deterministic test seam. Returns modules copied or re-encoded.
  uint64_t replicate_now();

  // Introspection (test seams) ----------------------------------------------

  int n_shards() const { return config_.n_shards; }
  // The key's static ring owners, first = primary. Liveness-independent.
  std::vector<int> module_owners(const std::string& key) const;
  // The routing decision for this prompt right now (no dispatch): the live
  // shard owning the largest share of its modules, or -1 when none live.
  int route_shard(const std::string& prompt) const;
  bool shard_has_module(int shard, const std::string& key) const;

 private:
  struct Shard {
    int index = 0;
    // Server/store/placement are rebuilt on restart; lifecycle guards the
    // pointers against a concurrent restart (never held while waiting on
    // the router mutex — lock order is mutex_ AFTER lifecycle, never the
    // reverse... see shard.cpp's locking notes).
    std::mutex lifecycle;
    std::unique_ptr<SharedModuleStore> store;
    std::unique_ptr<Server> server;
    // Encodes/pins modules for placement and healing, outside any request.
    // Guarded by lifecycle like the other pointers (a placement encode
    // briefly blocks this shard's dispatch/restart, never the fleet).
    std::unique_ptr<PromptCacheEngine> placement;
    std::set<std::string> owner_pinned;  // guarded by lifecycle

    // Liveness (guarded by the router's mutex_).
    bool alive = true;
    uint64_t epoch = 0;
    uint64_t routed = 0;
    // Dispatched but not yet delivered: the routing load signal. Reset to
    // 0 on kill (the flush reclaims every in-flight slot at once).
    int64_t outstanding = 0;
    uint64_t kills = 0;
    int restart_countdown = -1;  // submits until auto-restart; -1 = none
    bool restart_queued = false;
  };

  // What the pump processes: a shard delivery, a failover re-dispatch, or
  // a shard restart.
  struct Event {
    enum class Kind { kDelivery, kFailover, kRestart } kind;
    int shard = -1;
    uint64_t epoch = 0;      // delivery: the producing server's generation
    ServerResponse resp;     // delivery
    uint64_t rid = 0;        // failover: router id
  };

  // An undelivered request, kept until a terminal response lands so a
  // failover can re-dispatch it verbatim.
  struct Pending {
    std::string prompt;
    GenerateOptions options;
    double deadline_ms = 0;
    std::chrono::steady_clock::time_point submitted;
    // When the surviving dispatch handed the request to its shard; with
    // failovers > 0, delivered ShardResponse::failover_ms = submitted ->
    // last_dispatch (the re-routing cost the kills added).
    std::chrono::steady_clock::time_point last_dispatch;
    int failovers = 0;
    int last_shard = -1;
    // Non-owned keys this dispatch uses on last_shard (cross-fetched or
    // already present from a concurrent request). Each holds a fetch_refs_
    // reference; the key streams back out of the store when the last
    // reference drops (unless cache_cross_fetches).
    std::vector<std::string> fetched_keys;
  };

  using InflightKey = std::tuple<int, uint64_t, uint64_t>;  // shard, epoch, sid

  void build_shard(Shard& s, uint64_t gen_epoch);
  void push_event(Event e);
  void pump_loop();
  void replicator_loop();
  // One healing sweep over all_keys_ (caller holds replicator_mutex_).
  uint64_t replicate_pass();
  // Routes + dispatches pending_[rid] to a live shard (or delivers kFailed
  // when none). Called from submit() and from the pump (failover).
  void dispatch(uint64_t rid);
  // Books the terminal response under mutex_; returns the cross-fetched
  // keys to stream back out of `shard`'s store (empty unless this delivery
  // came from the last dispatch target and streaming is on). The caller
  // hands them to stream_out() once mutex_ is released.
  std::vector<std::string> deliver_locked(uint64_t rid, int shard,
                                          ServerResponse&& resp);
  // Erases streamed-out keys from `shard`'s store (under its lifecycle
  // lock, so mutex_ must not be held), then retires the stream-out that
  // deliver_locked (or an undispatched timeout) counted and wakes drain().
  void stream_out(int shard, const std::vector<std::string>& keys);
  void process_delivery(Event& e);
  void process_failover(uint64_t rid);
  void process_restart(int shard);
  void kill_locked(int victim, std::vector<uint64_t>& flushed);
  // Module keys imported by a prompt (schema-qualified, encode order not
  // needed): parse-only, no engine.
  std::vector<std::string> prompt_module_keys(const std::string& prompt) const;
  std::vector<int> owners_of(const std::string& key) const;
  int pick_shard_locked(const std::vector<std::string>& keys,
                        uint64_t prompt_hash) const;

  const Model& model_;
  const TextTokenizer& tokenizer_;
  ShardConfig config_;

  // Placement ring: (hash, shard), sorted by hash. Immutable after ctor.
  std::vector<std::pair<uint64_t, int>> ring_;
  // Every module key of every configured schema ("schema::module"),
  // enumerated at ctor for initial placement and healing sweeps.
  std::vector<std::string> all_keys_;
  // key -> (schema name, module name), for pin_module on owners.
  std::map<std::string, std::pair<std::string, std::string>> key_parts_;
  // schema name -> keys of its anonymous (always-imported) modules.
  std::map<std::string, std::vector<std::string>> anon_keys_;

  // Event queue feeding the pump. Leaf lock: push_event never holds it
  // while taking any other lock. Declared before shards_ so zombie Server
  // callbacks (which enqueue) outlive-safely during member destruction.
  std::mutex events_mutex_;
  std::condition_variable events_cv_;
  std::deque<Event> events_;
  bool pump_stop_ = false;

  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex mutex_;  // router state: pending/inflight/liveness
  std::condition_variable cv_done_;
  std::map<uint64_t, Pending> pending_;
  std::map<InflightKey, uint64_t> inflight_;
  // Deliveries that raced their own registration (the server completed a
  // request before submit() got it into inflight_): parked here, consumed
  // when the registration arrives.
  std::map<InflightKey, ServerResponse> orphans_;
  // (shard, key) -> count of in-flight requests using this non-owned key
  // on that shard. Streaming erases the key only when the count hits 0,
  // so one delivery can't pull a fetched module out from under a
  // concurrent request. Cleared per shard on kill (the store dies anyway).
  std::map<std::pair<int, std::string>, int> fetch_refs_;
  std::vector<ShardResponse> delivered_;
  uint64_t next_rid_ = 0;
  uint64_t delivered_count_ = 0;
  // Deliveries whose stream-out erase has not run yet: drain() and stop()
  // wait for 0, so an idle fleet holds non-owned keys nowhere.
  int stream_outs_pending_ = 0;
  // Cumulative per-status tallies (survive drain()'s buffer clear).
  uint64_t n_completed_ = 0;
  uint64_t n_degraded_ = 0;
  uint64_t n_timeouts_ = 0;
  uint64_t n_shed_ = 0;
  uint64_t n_failed_ = 0;
  uint64_t next_victim_ = 0;  // round-robin shard-kill victim cursor
  bool stopped_ = false;
  bool clock_started_ = false;
  std::chrono::steady_clock::time_point first_submit_;
  std::chrono::steady_clock::time_point last_delivery_;

  std::thread pump_;
  std::thread replicator_;
  std::mutex replicator_mutex_;  // serializes replicate passes
  std::condition_variable replicator_cv_;
  bool replicator_stop_ = false;

  obs::SloTracker slo_;
  obs::Counter submitted_;      // pc_shard_router_submitted_total
  obs::Counter delivered_ctr_;  // pc_shard_router_delivered_total
  obs::Counter kills_;          // pc_shard_kills_total
  obs::Counter restarts_;       // pc_shard_restarts_total
  obs::Counter failovers_;      // pc_shard_failovers_total
  obs::Counter cross_fetches_;  // pc_shard_cross_fetches_total
  obs::Counter cross_fetch_bytes_;  // pc_shard_cross_fetch_bytes_total
  obs::Counter rereplications_;     // pc_shard_rereplications_total
  obs::Counter unavailable_degrades_;  // pc_shard_unavailable_degrades_total
  obs::Gauge live_gauge_;       // pc_shard_live
};

}  // namespace pc
