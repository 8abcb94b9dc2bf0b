// ShardRouter implementation. Locking discipline (the invariants every
// function below leans on):
//
//   * mutex_ guards router state: pending_/inflight_/orphans_/delivered_,
//     the per-shard liveness fields (alive/epoch/routed/kills/restart_*),
//     and the tallies. Never held across a Server call or a module copy.
//   * Shard::lifecycle guards that shard's store/server/placement pointers
//     and owner_pinned. Lock ORDER is lifecycle -> mutex_ (dispatch holds
//     the target's lifecycle across Server::submit and then registers
//     under mutex_); the reverse order is forbidden, so any code already
//     under mutex_ snapshots what it needs and re-locks lifecycle after
//     releasing. At most ONE lifecycle is held at a time — cross-shard
//     copies take the source's lock, copy the payload out, release, then
//     take the destination's.
//   * events_mutex_ is a leaf: push_event takes nothing else, and may be
//     called while holding mutex_ or a lifecycle.
//   * replicator_mutex_ serializes healing passes and fronts the
//     replicator thread's cv; a pass takes mutex_/lifecycles underneath it
//     (never the reverse).
//
// Failover accounting: a request's failover count is incremented exactly
// once per lost dispatch — either when a kill flushes its inflight_ entry,
// or when its registration discovers the target's epoch moved while
// Server::submit was in flight. process_failover only re-dispatches; it
// never counts, so rescue requeues (all shards down, waiting on a restart)
// don't inflate pc_shard_failovers_total.
#include "sys/shard.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "common/error.h"
#include "obs/trace.h"
#include "pml/prompt.h"
#include "sys/fault.h"

namespace pc {

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

ShardRouter::ShardRouter(const Model& model, const TextTokenizer& tokenizer,
                         ShardConfig config)
    : model_(model),
      tokenizer_(tokenizer),
      config_(std::move(config)),
      slo_(config_.slo) {
  PC_CHECK_MSG(config_.n_shards > 0, "ShardRouter needs at least one shard");
  config_.replication =
      std::clamp(config_.replication, 1, config_.n_shards);
  if (config_.vnodes < 1) config_.vnodes = 1;

  auto& reg = obs::MetricsRegistry::global();
  submitted_ = reg.counter("pc_shard_router_submitted_total",
                           "requests submitted to the shard router");
  delivered_ctr_ = reg.counter("pc_shard_router_delivered_total",
                               "terminal responses delivered by the router");
  kills_ = reg.counter("pc_shard_kills_total", "shard kills (injected + manual)");
  restarts_ = reg.counter("pc_shard_restarts_total", "shard restarts");
  failovers_ = reg.counter("pc_shard_failovers_total",
                           "request re-routes after a shard kill");
  cross_fetches_ = reg.counter("pc_shard_cross_fetches_total",
                               "modules copied shard-to-shard at serve time");
  cross_fetch_bytes_ = reg.counter("pc_shard_cross_fetch_bytes_total",
                                   "bytes moved by cross-shard fetches");
  rereplications_ = reg.counter("pc_shard_rereplications_total",
                                "modules re-replicated by healing sweeps");
  unavailable_degrades_ =
      reg.counter("pc_shard_unavailable_degrades_total",
                  "requests degraded because every replica was down");
  live_gauge_ = reg.gauge("pc_shard_live", "shards currently alive");

  // The placement ring: vnodes per shard at splitmix64-spread positions.
  // Deterministic in (ring_seed, n_shards, vnodes) only — two routers with
  // the same config agree on every owner set.
  ring_.reserve(static_cast<size_t>(config_.n_shards) * config_.vnodes);
  for (int s = 0; s < config_.n_shards; ++s) {
    for (int v = 0; v < config_.vnodes; ++v) {
      const uint64_t h = splitmix64(
          config_.ring_seed ^
          splitmix64(static_cast<uint64_t>(s + 1) * 0x9e3779b97f4a7c15ULL +
                     static_cast<uint64_t>(v)));
      ring_.emplace_back(h, s);
    }
  }
  std::sort(ring_.begin(), ring_.end());

  for (int s = 0; s < config_.n_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->index = s;
    build_shard(*shard, /*gen_epoch=*/0);
    shards_.push_back(std::move(shard));
  }
  live_gauge_.set(config_.n_shards);

  // Enumerate every module key (named + anonymous) of every schema.
  // load_schema on an already-loaded schema re-parses and returns the
  // fresh layout; nothing has been placed yet, so the store erase it
  // performs is a no-op.
  for (const auto& src : config_.server.schemas) {
    const pml::Schema& sc = shards_[0]->placement->load_schema(src);
    for (size_t mi = 0; mi < sc.modules.size(); ++mi) {
      const std::string key = sc.name + "::" + sc.modules[mi].name;
      all_keys_.push_back(key);
      key_parts_[key] = {sc.name, sc.modules[mi].name};
      if (sc.modules[mi].anonymous) anon_keys_[sc.name].push_back(key);
    }
  }

  // Initial placement: encode each module ONCE (on its primary owner) and
  // copy the payload to the other R-1 owners, pinning everywhere. An
  // injected encode fault here is tolerated — the key heals on the next
  // replicate pass or lazily at serve time.
  for (const auto& key : all_keys_) {
    const auto owners = owners_of(key);
    const auto& parts = key_parts_.at(key);
    EncodedModule payload;
    bool have_payload = false;
    for (int o : owners) {
      Shard& s = *shards_[o];
      if (have_payload) {
        try {
          s.store->insert(key, EncodedModule(payload));
          s.store->pin(key);
          s.owner_pinned.insert(key);
        } catch (const CacheError&) {
          // Doesn't fit this shard's tiers; under-replicated until healed.
        }
        continue;
      }
      try {
        s.placement->pin_module(parts.first, parts.second);
        s.owner_pinned.insert(key);
      } catch (const TransientError&) {
        continue;  // encode fault: try the next owner as primary
      } catch (const CacheError&) {
        continue;
      }
      if (auto ref = s.store->find(key)) {
        payload = *ref;
        have_payload = true;
      }
    }
  }

  pump_ = std::thread([this] { pump_loop(); });
  if (config_.replicate_interval_ms > 0) {
    replicator_ = std::thread([this] { replicator_loop(); });
  }
}

ShardRouter::~ShardRouter() { stop(); }

void ShardRouter::build_shard(Shard& s, uint64_t gen_epoch) {
  s.store = std::make_unique<SharedModuleStore>(config_.device_capacity,
                                                config_.host_capacity);
  ServerConfig sc = config_.server;
  // The router places modules itself and owns the response lifecycle.
  sc.engine.eager_encode = false;
  sc.retain_responses = false;
  const int index = s.index;
  sc.on_record = [this, index, gen_epoch](const ServerResponse& r) {
    Event e;
    e.kind = Event::Kind::kDelivery;
    e.shard = index;
    e.epoch = gen_epoch;  // the producing server's generation, not the
                          // shard's current epoch — stale ones are dropped
    e.resp = r;
    push_event(std::move(e));
  };
  s.server = std::make_unique<Server>(model_, tokenizer_, *s.store,
                                      std::move(sc));
  EngineConfig ec = config_.server.engine;
  ec.eager_encode = false;
  s.placement =
      std::make_unique<PromptCacheEngine>(model_, tokenizer_, *s.store, ec);
  for (const auto& src : config_.server.schemas) s.placement->load_schema(src);
}

// --- Placement -------------------------------------------------------------

std::vector<int> ShardRouter::owners_of(const std::string& key) const {
  const uint64_t h =
      splitmix64(std::hash<std::string>{}(key) ^ config_.ring_seed);
  std::vector<int> owners;
  owners.reserve(static_cast<size_t>(config_.replication));
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, -1));
  for (size_t step = 0; step < ring_.size() &&
                        static_cast<int>(owners.size()) < config_.replication;
       ++step) {
    if (it == ring_.end()) it = ring_.begin();
    const int shard = it->second;
    if (std::find(owners.begin(), owners.end(), shard) == owners.end()) {
      owners.push_back(shard);
    }
    ++it;
  }
  return owners;
}

std::vector<int> ShardRouter::module_owners(const std::string& key) const {
  return owners_of(key);
}

std::vector<std::string> ShardRouter::prompt_module_keys(
    const std::string& prompt) const {
  std::vector<std::string> keys;
  pml::PromptAst ast;
  try {
    ast = pml::parse_prompt(prompt);
  } catch (const Error&) {
    return keys;  // unparseable: routed by prompt hash alone
  }
  std::set<std::string> seen;
  const auto add = [&](const std::string& key) {
    if (seen.insert(key).second) keys.push_back(key);
  };
  if (auto it = anon_keys_.find(ast.schema_name); it != anon_keys_.end()) {
    for (const auto& k : it->second) add(k);
  }
  const std::function<void(const std::vector<pml::PromptItem>&)> walk =
      [&](const std::vector<pml::PromptItem>& items) {
        for (const auto& item : items) {
          if (item.is_text()) continue;
          add(ast.schema_name + "::" + item.import->module_name);
          walk(item.import->children);
        }
      };
  walk(ast.items);
  return keys;
}

int ShardRouter::pick_shard_locked(const std::vector<std::string>& keys,
                                   uint64_t prompt_hash) const {
  // Affinity discounted by queue pressure: one outstanding request costs
  // half a module of ownership, so a hot prompt serializing on its best
  // owner spills to the next replica (and eventually anywhere) once the
  // owner's queue is deep enough to outweigh the cross-fetch. On an idle
  // router this is exactly "largest owned share".
  std::vector<int64_t> eff(static_cast<size_t>(config_.n_shards),
                           std::numeric_limits<int64_t>::min());
  for (int s = 0; s < config_.n_shards; ++s) {
    if (!shards_[static_cast<size_t>(s)]->alive) continue;
    eff[static_cast<size_t>(s)] =
        -2 * shards_[static_cast<size_t>(s)]->outstanding;
  }
  for (const auto& key : keys) {
    for (int o : owners_of(key)) {
      if (shards_[static_cast<size_t>(o)]->alive) {
        eff[static_cast<size_t>(o)] += 4;
      }
    }
  }
  int best = -1;
  for (int s = 0; s < config_.n_shards; ++s) {
    if (!shards_[static_cast<size_t>(s)]->alive) continue;
    if (best < 0 ||
        eff[static_cast<size_t>(s)] > eff[static_cast<size_t>(best)]) {
      best = s;
    }
  }
  if (best < 0) return -1;
  // Tie-break among live max-score shards by a ring walk from the prompt
  // hash: deterministic, and spreads no-module prompts across the fleet.
  const int64_t best_eff = eff[static_cast<size_t>(best)];
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(prompt_hash, -1));
  for (size_t step = 0; step < ring_.size(); ++step) {
    if (it == ring_.end()) it = ring_.begin();
    const int s = it->second;
    if (shards_[static_cast<size_t>(s)]->alive &&
        eff[static_cast<size_t>(s)] == best_eff) {
      return s;
    }
    ++it;
  }
  return best;
}

int ShardRouter::route_shard(const std::string& prompt) const {
  const auto keys = prompt_module_keys(prompt);
  const uint64_t h =
      splitmix64(std::hash<std::string>{}(prompt) ^ config_.ring_seed);
  std::lock_guard<std::mutex> lock(mutex_);
  return pick_shard_locked(keys, h);
}

bool ShardRouter::shard_has_module(int shard, const std::string& key) const {
  PC_CHECK(shard >= 0 && shard < config_.n_shards);
  Shard& s = *shards_[static_cast<size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.lifecycle);
  return s.store != nullptr && s.store->contains(key);
}

bool ShardRouter::shard_alive(int shard) const {
  PC_CHECK(shard >= 0 && shard < config_.n_shards);
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_[static_cast<size_t>(shard)]->alive;
}

// --- Submission and chaos --------------------------------------------------

uint64_t ShardRouter::submit(std::string prompt,
                             const GenerateOptions& options,
                             double deadline_ms) {
  uint64_t rid = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) throw Error("ShardRouter is stopped");
    rid = next_rid_++;
    submitted_.inc();
    const auto now = std::chrono::steady_clock::now();
    if (!clock_started_) {
      clock_started_ = true;
      first_submit_ = now;
    }
    Pending p;
    p.prompt = prompt;
    p.options = options;
    p.deadline_ms = deadline_ms;
    p.submitted = now;
    pending_.emplace(rid, std::move(p));

    // Advance auto-restart countdowns (chaos schedules move with traffic).
    for (auto& sp : shards_) {
      if (sp->alive || sp->restart_countdown <= 0) continue;
      if (--sp->restart_countdown == 0) {
        sp->restart_countdown = -1;
        sp->restart_queued = true;
        Event e;
        e.kind = Event::Kind::kRestart;
        e.shard = sp->index;
        push_event(std::move(e));
      }
    }

    // Poll the shard-kill fault point — only while a victim exists, so
    // injected(kShardKill) reconciles exactly with observed kills.
    bool any_alive = false;
    for (const auto& sp : shards_) any_alive = any_alive || sp->alive;
    if (any_alive &&
        FaultInjector::global().should_fail(FaultPoint::kShardKill)) {
      for (int i = 0; i < config_.n_shards; ++i) {
        const int victim =
            static_cast<int>(next_victim_++ % config_.n_shards);
        if (!shards_[static_cast<size_t>(victim)]->alive) continue;
        std::vector<uint64_t> flushed;
        kill_locked(victim, flushed);
        for (uint64_t f : flushed) {
          Event e;
          e.kind = Event::Kind::kFailover;
          e.rid = f;
          push_event(std::move(e));
        }
        break;
      }
    }
  }
  dispatch(rid);
  return rid;
}

void ShardRouter::kill_shard(int shard) {
  PC_CHECK(shard >= 0 && shard < config_.n_shards);
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint64_t> flushed;
  kill_locked(shard, flushed);
  for (uint64_t f : flushed) {
    Event e;
    e.kind = Event::Kind::kFailover;
    e.rid = f;
    push_event(std::move(e));
  }
}

void ShardRouter::kill_locked(int victim, std::vector<uint64_t>& flushed) {
  Shard& s = *shards_[static_cast<size_t>(victim)];
  if (!s.alive) return;
  s.alive = false;
  ++s.epoch;
  ++s.kills;
  kills_.inc();
  live_gauge_.sub(1);
  s.restart_countdown =
      config_.restart_after_submits > 0 ? config_.restart_after_submits : -1;
  s.outstanding = 0;  // the flush below reclaims every in-flight slot
  // Cross-fetch references into the dead store are moot: the restart
  // rebuilds it empty, and surviving dispatches re-fetch on their new
  // target under fresh references.
  for (auto it = fetch_refs_.begin(); it != fetch_refs_.end();) {
    if (it->first.first == victim) {
      it = fetch_refs_.erase(it);
    } else {
      ++it;
    }
  }
  // Late deliveries parked before the kill are from the dead generation.
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if (std::get<0>(it->first) == victim) {
      it = orphans_.erase(it);
    } else {
      ++it;
    }
  }
  // Flush this shard's in-flight requests to the pump for re-routing. The
  // failover is counted HERE, once per lost dispatch.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (std::get<0>(it->first) == victim) {
      const uint64_t rid = it->second;
      auto pit = pending_.find(rid);
      if (pit != pending_.end()) {
        ++pit->second.failovers;
        failovers_.inc();
        flushed.push_back(rid);
      }
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
  PC_INSTANT("shard_kill", {"shard", static_cast<int64_t>(victim)});
}

void ShardRouter::restart_shard(int shard) {
  PC_CHECK(shard >= 0 && shard < config_.n_shards);
  std::lock_guard<std::mutex> lock(mutex_);
  Shard& s = *shards_[static_cast<size_t>(shard)];
  if (s.alive || s.restart_queued) return;
  s.restart_queued = true;
  Event e;
  e.kind = Event::Kind::kRestart;
  e.shard = shard;
  push_event(std::move(e));
}

// --- Dispatch --------------------------------------------------------------

void ShardRouter::dispatch(uint64_t rid) {
  // Phase 1: snapshot the request (pending_ may already be gone if a
  // synthetic delivery beat us here).
  std::string prompt;
  GenerateOptions options;
  double deadline_ms = 0;
  int failovers = 0;
  std::chrono::steady_clock::time_point submitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(rid);
    if (it == pending_.end()) return;
    prompt = it->second.prompt;
    options = it->second.options;
    deadline_ms = it->second.deadline_ms;
    failovers = it->second.failovers;
    submitted = it->second.submitted;
  }

  const auto keys = prompt_module_keys(prompt);
  const uint64_t prompt_hash =
      splitmix64(std::hash<std::string>{}(prompt) ^ config_.ring_seed);

  // Phase 2: pick a live target and snapshot its epoch + fleet liveness.
  int target = -1;
  uint64_t epoch_snap = 0;
  std::vector<bool> alive_snap(static_cast<size_t>(config_.n_shards), false);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.find(rid) == pending_.end()) return;
    target = pick_shard_locked(keys, prompt_hash);
    if (target >= 0) {
      Shard& s = *shards_[static_cast<size_t>(target)];
      epoch_snap = s.epoch;
      ++s.routed;
      ++s.outstanding;  // reclaimed at delivery or by the kill flush
      for (int i = 0; i < config_.n_shards; ++i) {
        alive_snap[static_cast<size_t>(i)] =
            shards_[static_cast<size_t>(i)]->alive;
      }
    }
  }
  if (target < 0) {
    process_failover(rid);  // all-dead handling lives there
    return;
  }
  Shard& tgt = *shards_[static_cast<size_t>(target)];

  // Phase 3: make the target's store serve-ready. Keys the target OWNS are
  // its responsibility (pinned at placement; re-encoded lazily after a
  // restart). Keys it doesn't own are fetched from a live holder and the
  // transfer charged through cross_link; when every replica of a key is
  // down, the request degrades to full prefill.
  int owned = 0;
  size_t fetch_bytes = 0;
  uint64_t fetches = 0;
  bool force_full_prefill = false;
  std::string down_key;
  std::vector<std::string> fetched;
  for (const auto& key : keys) {
    const auto owners = owners_of(key);
    const bool target_owns =
        std::find(owners.begin(), owners.end(), target) != owners.end();
    if (target_owns) {
      ++owned;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(tgt.lifecycle);
      if (tgt.store != nullptr && tgt.store->contains(key)) {
        // A concurrent request's cross-fetched copy: share it, and hold a
        // reference so its delivery can't stream it out from under us.
        fetched.push_back(key);
        continue;
      }
    }
    bool any_owner_alive = false;
    for (int o : owners) {
      any_owner_alive =
          any_owner_alive || alive_snap[static_cast<size_t>(o)];
    }
    if (!any_owner_alive) {
      force_full_prefill = true;
      down_key = key;
      unavailable_degrades_.inc();
      break;
    }
    // Copy from a live holder (owners first — they pin it resident).
    EncodedModule payload;
    bool have_payload = false;
    for (int src : owners) {
      if (!alive_snap[static_cast<size_t>(src)] || src == target) continue;
      Shard& s = *shards_[static_cast<size_t>(src)];
      std::lock_guard<std::mutex> lock(s.lifecycle);
      if (s.store == nullptr) continue;
      if (auto ref = s.store->find(key)) {
        payload = *ref;
        have_payload = true;
        break;
      }
    }
    if (!have_payload) {
      // No live copy anywhere: encode on a live owner (its placement
      // engine), so ownership discipline holds, then copy from there.
      const auto parts = key_parts_.find(key);
      for (int o : owners) {
        if (parts == key_parts_.end()) break;
        if (!alive_snap[static_cast<size_t>(o)]) continue;
        Shard& s = *shards_[static_cast<size_t>(o)];
        std::lock_guard<std::mutex> lock(s.lifecycle);
        if (s.placement == nullptr) continue;
        try {
          s.placement->pin_module(parts->second.first, parts->second.second);
          s.owner_pinned.insert(key);
        } catch (const Error&) {
          continue;
        }
        if (auto ref = s.store->find(key)) {
          payload = *ref;
          have_payload = true;
          break;
        }
      }
    }
    if (!have_payload) {
      // The target's engine encodes it lazily at serve; that copy is
      // non-owned too, so track it for stream-out at delivery.
      fetched.push_back(key);
      continue;
    }
    const size_t bytes = payload.payload_bytes();
    try {
      std::lock_guard<std::mutex> lock(tgt.lifecycle);
      if (tgt.store == nullptr) continue;
      tgt.store->insert(key, std::move(payload));
    } catch (const CacheError&) {
      fetched.push_back(key);  // lazily re-encoded at serve; still non-owned
      continue;  // doesn't fit; serve-side ensure() deals with it
    }
    fetch_bytes += bytes;
    ++fetches;
    cross_fetches_.inc();
    cross_fetch_bytes_.inc(bytes);
    fetched.push_back(key);
  }
  const double extra_stall_ms =
      fetches > 0 ? config_.cross_link.stall_s(fetch_bytes) * 1e3 : 0.0;

  // Phase 4: hand to the shard's Server and register the inflight mapping.
  SubmitOptions sopts;
  sopts.extra_stall_ms = extra_stall_ms;
  sopts.force_full_prefill = force_full_prefill;
  if (force_full_prefill) {
    sopts.annotation =
        "all replicas down for " + down_key + ": full prefill";
  } else {
    sopts.annotation = "shard " + std::to_string(target) + ": owns " +
                       std::to_string(owned) + "/" +
                       std::to_string(keys.size()) + " modules" +
                       (failovers > 0
                            ? ", failover " + std::to_string(failovers)
                            : "");
  }
  if (deadline_ms > 0) {
    const double remaining =
        deadline_ms - ms_between(submitted, std::chrono::steady_clock::now());
    if (remaining <= 0) {
      ServerResponse r;
      r.status = ServeStatus::kTimeout;
      r.detail = "deadline expired during shard failover";
      std::vector<std::string> stranded;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (pending_.find(rid) == pending_.end()) return;
        if (tgt.alive && tgt.epoch == epoch_snap) {
          // The dispatch never reached the target: give back its routing
          // slot and stream out copies no concurrent request references.
          // (A kill since phase 2 already reclaimed both.)
          if (tgt.outstanding > 0) --tgt.outstanding;
          if (!config_.cache_cross_fetches) {
            for (const auto& key : fetched) {
              if (fetch_refs_.find({target, key}) == fetch_refs_.end()) {
                stranded.push_back(key);
              }
            }
          }
        }
        (void)deliver_locked(rid, -1, std::move(r));
        if (!stranded.empty()) ++stream_outs_pending_;
      }
      cv_done_.notify_all();
      if (!stranded.empty()) stream_out(target, stranded);
      return;
    }
    sopts.deadline_ms = remaining;
  }

  bool delivered = false;
  std::vector<std::string> cleanup;
  {
    // lifecycle held across submit(): a restart cannot swap the Server out
    // from under us, and lifecycle -> mutex_ is the sanctioned order.
    std::lock_guard<std::mutex> lifecycle(tgt.lifecycle);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (pending_.find(rid) == pending_.end()) return;
      if (!tgt.alive || tgt.epoch != epoch_snap) {
        auto& p = pending_.at(rid);
        ++p.failovers;
        failovers_.inc();
        Event e;
        e.kind = Event::Kind::kFailover;
        e.rid = rid;
        push_event(std::move(e));
        return;
      }
    }
    const uint64_t sid = tgt.server->submit(prompt, options, sopts);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = pending_.find(rid);
      PC_CHECK(it != pending_.end());
      Pending& p = it->second;
      p.last_shard = target;
      p.last_dispatch = std::chrono::steady_clock::now();
      if (tgt.alive && tgt.epoch == epoch_snap) {
        // Registration sticks: reference the non-owned keys this dispatch
        // uses so no concurrent delivery streams them out mid-serve. (On
        // epoch mismatch the kill already cleared the shard's refs and the
        // restart rebuilds the store empty — nothing to reference.)
        p.fetched_keys = fetched;
        if (!config_.cache_cross_fetches) {
          for (const auto& key : fetched) ++fetch_refs_[{target, key}];
        }
      }
      if (!tgt.alive || tgt.epoch != epoch_snap) {
        // Killed while submit() was in flight; the zombie's delivery will
        // carry the old generation and be dropped.
        ++p.failovers;
        failovers_.inc();
        Event e;
        e.kind = Event::Kind::kFailover;
        e.rid = rid;
        push_event(std::move(e));
      } else {
        const InflightKey k{target, epoch_snap, sid};
        auto oit = orphans_.find(k);
        if (oit != orphans_.end()) {
          // The server finished before we registered: consume the parked
          // delivery now.
          ServerResponse resp = std::move(oit->second);
          orphans_.erase(oit);
          cleanup = deliver_locked(rid, target, std::move(resp));
          delivered = true;
        } else {
          inflight_[k] = rid;
        }
      }
    }
  }
  if (delivered) {
    cv_done_.notify_all();
    if (!cleanup.empty()) stream_out(target, cleanup);
  }
}

// --- Pump ------------------------------------------------------------------

void ShardRouter::push_event(Event e) {
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back(std::move(e));
  }
  events_cv_.notify_one();
}

void ShardRouter::pump_loop() {
  for (;;) {
    Event e;
    {
      std::unique_lock<std::mutex> lock(events_mutex_);
      events_cv_.wait(lock,
                      [this] { return pump_stop_ || !events_.empty(); });
      if (events_.empty()) return;  // pump_stop_ and fully drained
      e = std::move(events_.front());
      events_.pop_front();
    }
    switch (e.kind) {
      case Event::Kind::kDelivery:
        process_delivery(e);
        break;
      case Event::Kind::kFailover:
        process_failover(e.rid);
        break;
      case Event::Kind::kRestart:
        process_restart(e.shard);
        break;
    }
  }
}

void ShardRouter::process_delivery(Event& e) {
  bool delivered = false;
  std::vector<std::string> cleanup;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const InflightKey k{e.shard, e.epoch, e.resp.id};
    auto it = inflight_.find(k);
    if (it != inflight_.end()) {
      const uint64_t rid = it->second;
      inflight_.erase(it);
      cleanup = deliver_locked(rid, e.shard, std::move(e.resp));
      delivered = true;
    } else {
      Shard& s = *shards_[static_cast<size_t>(e.shard)];
      if (s.alive && s.epoch == e.epoch) {
        // Raced its own registration; park until dispatch registers it.
        orphans_.emplace(k, std::move(e.resp));
      }
      // else: a zombie generation's output — dropped (the request already
      // failed over).
    }
  }
  if (!delivered) return;
  cv_done_.notify_all();
  if (!cleanup.empty()) stream_out(e.shard, cleanup);
}

void ShardRouter::stream_out(int shard, const std::vector<std::string>& keys) {
  {
    Shard& s = *shards_[static_cast<size_t>(shard)];
    std::lock_guard<std::mutex> lock(s.lifecycle);
    if (s.store != nullptr) {
      for (const auto& key : keys) s.store->erase(key);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --stream_outs_pending_;
  }
  cv_done_.notify_all();
}

std::vector<std::string> ShardRouter::deliver_locked(uint64_t rid, int shard,
                                                     ServerResponse&& resp) {
  auto it = pending_.find(rid);
  PC_CHECK(it != pending_.end());
  Pending& p = it->second;
  ShardResponse out;
  out.id = rid;
  out.shard = shard;
  out.failovers = p.failovers;
  out.failover_ms =
      p.failovers > 0 ? ms_between(p.submitted, p.last_dispatch) : 0;
  switch (resp.status) {
    case ServeStatus::kOk:
      ++n_completed_;
      break;
    case ServeStatus::kDegraded:
      ++n_completed_;
      ++n_degraded_;
      break;
    case ServeStatus::kTimeout:
      ++n_timeouts_;
      break;
    case ServeStatus::kShed:
      ++n_shed_;
      break;
    case ServeStatus::kFailed:
      ++n_failed_;
      break;
  }
  slo_.record(is_served(resp.status), resp.deadline_met);
  out.resp = std::move(resp);
  delivered_ctr_.inc();
  ++delivered_count_;
  last_delivery_ = std::chrono::steady_clock::now();
  delivered_.push_back(std::move(out));
  if (shard >= 0) {
    // The delivering registration's routing slot. A delivery with a live
    // registration implies no kill since dispatch (the flush would have
    // consumed it), so this pairs exactly with phase 2's increment.
    Shard& s = *shards_[static_cast<size_t>(shard)];
    if (s.outstanding > 0) --s.outstanding;
  }
  std::vector<std::string> cleanup;
  if (!config_.cache_cross_fetches && shard >= 0 && shard == p.last_shard) {
    // Release this request's references; stream out keys nobody else uses.
    for (const auto& key : p.fetched_keys) {
      auto rit = fetch_refs_.find({shard, key});
      if (rit == fetch_refs_.end()) continue;  // cleared by a kill
      if (--rit->second <= 0) {
        fetch_refs_.erase(rit);
        cleanup.push_back(key);
      }
    }
  }
  pending_.erase(it);
  if (!cleanup.empty()) ++stream_outs_pending_;
  return cleanup;
}

void ShardRouter::process_failover(uint64_t rid) {
  bool delivered = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.find(rid) == pending_.end()) return;
    bool any_alive = false;
    bool restart_coming = false;
    for (const auto& sp : shards_) {
      any_alive = any_alive || sp->alive;
      restart_coming = restart_coming || sp->restart_queued;
    }
    if (!any_alive) {
      if (!restart_coming && config_.restart_after_submits > 0) {
        // Rescue: force the first dead shard back up rather than failing
        // requests that auto-restart would have saved moments later.
        Shard& s = *shards_[0];
        s.restart_queued = true;
        s.restart_countdown = -1;
        Event e;
        e.kind = Event::Kind::kRestart;
        e.shard = s.index;
        push_event(std::move(e));
        restart_coming = true;
      }
      if (restart_coming) {
        // Requeue behind the restart (event order is FIFO).
        Event e;
        e.kind = Event::Kind::kFailover;
        e.rid = rid;
        push_event(std::move(e));
        return;
      }
      ServerResponse r;
      r.status = ServeStatus::kFailed;
      r.detail = "all shards down";
      deliver_locked(rid, -1, std::move(r));
      delivered = true;
    }
  }
  if (delivered) {
    cv_done_.notify_all();
    return;
  }
  dispatch(rid);
}

void ShardRouter::process_restart(int shard) {
  Shard& s = *shards_[static_cast<size_t>(shard)];
  std::lock_guard<std::mutex> lifecycle(s.lifecycle);
  uint64_t gen = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (s.alive) {
      s.restart_queued = false;
      return;
    }
    gen = s.epoch + 1;
  }
  // Tear down the zombie (joins its lanes; their final on_record events
  // carry the old generation and are dropped) and come back empty.
  s.server.reset();
  s.placement.reset();
  s.store.reset();
  s.owner_pinned.clear();
  build_shard(s, gen);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.epoch = gen;
    s.alive = true;
    s.restart_queued = false;
    s.restart_countdown = -1;
    restarts_.inc();
    live_gauge_.add(1);
  }
  PC_INSTANT("shard_restart", {"shard", static_cast<int64_t>(shard)});
  replicator_cv_.notify_all();
}

// --- Healing ---------------------------------------------------------------

uint64_t ShardRouter::replicate_now() {
  std::lock_guard<std::mutex> lock(replicator_mutex_);
  return replicate_pass();
}

uint64_t ShardRouter::replicate_pass() {
  uint64_t healed = 0;
  for (const auto& key : all_keys_) {
    const auto owners = owners_of(key);
    std::vector<int> live_owners;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (int o : owners) {
        if (shards_[static_cast<size_t>(o)]->alive) live_owners.push_back(o);
      }
    }
    for (int o : live_owners) {
      Shard& dst = *shards_[static_cast<size_t>(o)];
      bool have = false;
      bool pinned = false;
      {
        std::lock_guard<std::mutex> lock(dst.lifecycle);
        if (dst.store == nullptr) continue;
        have = dst.store->contains(key);
        pinned = dst.owner_pinned.count(key) > 0;
      }
      if (have && pinned) continue;
      if (have) {
        std::lock_guard<std::mutex> lock(dst.lifecycle);
        if (dst.store != nullptr && dst.store->pin(key)) {
          dst.owner_pinned.insert(key);
        }
        continue;
      }
      // Copy from any live holder (other owners first), else re-encode.
      EncodedModule payload;
      bool have_payload = false;
      for (int src : live_owners) {
        if (src == o) continue;
        Shard& s = *shards_[static_cast<size_t>(src)];
        std::lock_guard<std::mutex> lock(s.lifecycle);
        if (s.store == nullptr) continue;
        if (auto ref = s.store->find(key)) {
          payload = *ref;
          have_payload = true;
          break;
        }
      }
      if (have_payload) {
        const double stall_s = config_.cross_link.stall_s(
            payload.payload_bytes());
        if (stall_s > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(stall_s));
        }
        try {
          std::lock_guard<std::mutex> lock(dst.lifecycle);
          if (dst.store == nullptr) continue;
          dst.store->insert(key, std::move(payload));
          dst.store->pin(key);
          dst.owner_pinned.insert(key);
        } catch (const CacheError&) {
          continue;
        }
        rereplications_.inc();
        ++healed;
      } else {
        const auto parts = key_parts_.find(key);
        if (parts == key_parts_.end()) continue;
        std::lock_guard<std::mutex> lock(dst.lifecycle);
        if (dst.placement == nullptr) continue;
        try {
          dst.placement->pin_module(parts->second.first,
                                    parts->second.second);
          dst.owner_pinned.insert(key);
        } catch (const Error&) {
          continue;  // encode fault / capacity: next pass retries
        }
        rereplications_.inc();
        ++healed;
      }
    }
  }
  return healed;
}

void ShardRouter::replicator_loop() {
  std::unique_lock<std::mutex> lock(replicator_mutex_);
  while (!replicator_stop_) {
    replicator_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(
            config_.replicate_interval_ms),
        [this] { return replicator_stop_; });
    if (replicator_stop_) return;
    replicate_pass();  // still holding replicator_mutex_: passes serialize
  }
}

// --- Drain / stop / stats --------------------------------------------------

std::vector<ShardResponse> ShardRouter::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] {
    return delivered_count_ == next_rid_ && stream_outs_pending_ == 0;
  });
  std::vector<ShardResponse> out = std::move(delivered_);
  delivered_.clear();
  std::sort(out.begin(), out.end(),
            [](const ShardResponse& a, const ShardResponse& b) {
              return a.id < b.id;
            });
  return out;
}

void ShardRouter::stop() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopped_ = true;
    cv_done_.wait(lock, [this] {
      return delivered_count_ == next_rid_ && stream_outs_pending_ == 0;
    });
  }
  {
    std::lock_guard<std::mutex> lock(replicator_mutex_);
    replicator_stop_ = true;
  }
  replicator_cv_.notify_all();
  if (replicator_.joinable()) replicator_.join();
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    pump_stop_ = true;
  }
  events_cv_.notify_all();
  if (pump_.joinable()) pump_.join();
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->lifecycle);
    if (sp->server) sp->server->stop();
  }
}

ShardRouterStats ShardRouter::stats() const {
  ShardRouterStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.submitted = next_rid_;
    out.delivered = delivered_count_;
    out.completed = n_completed_;
    out.degraded = n_degraded_;
    out.timeouts = n_timeouts_;
    out.shed = n_shed_;
    out.failed = n_failed_;
    out.kills = kills_.value();
    out.restarts = restarts_.value();
    out.failovers = failovers_.value();
    out.cross_fetches = cross_fetches_.value();
    out.cross_fetch_bytes = cross_fetch_bytes_.value();
    out.rereplications = rereplications_.value();
    out.unavailable_degrades = unavailable_degrades_.value();
    out.availability = out.delivered > 0
                           ? static_cast<double>(out.completed) /
                                 static_cast<double>(out.delivered)
                           : 1.0;
    if (clock_started_ && out.delivered > 0) {
      out.wall_ms = ms_between(first_submit_, last_delivery_);
      if (out.wall_ms > 0) {
        out.throughput_rps =
            static_cast<double>(out.completed) / (out.wall_ms / 1e3);
      }
    }
    out.shards.resize(static_cast<size_t>(config_.n_shards));
    for (int i = 0; i < config_.n_shards; ++i) {
      const Shard& s = *shards_[static_cast<size_t>(i)];
      auto& ss = out.shards[static_cast<size_t>(i)];
      ss.alive = s.alive;
      ss.epoch = s.epoch;
      ss.routed = s.routed;
      ss.kills = s.kills;
    }
  }
  // Store footprints need the lifecycle locks — taken after mutex_ is
  // released (lifecycle -> mutex_ is the only sanctioned nesting).
  for (int i = 0; i < config_.n_shards; ++i) {
    Shard& s = *shards_[static_cast<size_t>(i)];
    std::lock_guard<std::mutex> lock(s.lifecycle);
    if (s.store == nullptr) continue;
    const size_t bytes = s.store->resident_bytes();
    out.shards[static_cast<size_t>(i)].resident_bytes = bytes;
    if (out.shards[static_cast<size_t>(i)].alive) {
      out.resident_bytes_total += bytes;
    }
  }
  return out;
}

}  // namespace pc
