// ShardRouter implementation. Locking discipline (the invariants every
// function below leans on):
//
//   * mutex_ guards router state: pending_/inflight_/fetch_refs_/
//     delivered_, the per-shard liveness fields (alive/epoch/routed/
//     outstanding/kills/restart_*), and the tallies. Never held across a
//     Server call, an encode or a module copy.
//   * Shard::lifecycle guards that shard's server pointer and
//     owner_pinned. Lock ORDER is lifecycle -> mutex_: dispatch holds the
//     target's lifecycle across Server::submit and registers under mutex_,
//     and the pump books a delivery under the delivering shard's
//     lifecycle, then mutex_. So no delivery is booked before its
//     registration, and deliver_locked may erase streamed-out copies from
//     that shard's store. The reverse order is forbidden, so any code
//     already under mutex_ snapshots what it needs and re-locks lifecycle
//     after releasing. At most ONE lifecycle is held at a time — place()
//     takes the source's lock, takes a ref to the payload, releases, then
//     takes the destination's.
//   * events_mutex_ is a leaf: push_event takes nothing else, and may be
//     called while holding mutex_ or a lifecycle.
//   * replicate_mutex_ serializes healing passes; a pass takes
//     mutex_/lifecycles underneath it (never the reverse).
//
// Failover accounting (fail_over_locked): a request's failover count is
// incremented exactly once per lost dispatch — either when a kill flushes
// its inflight_ entry, or when dispatch finds the target's epoch moved
// before or while Server::submit ran. process_failover only re-dispatches;
// it never counts, so rescue requeues (all shards down, waiting on a
// restart) don't inflate pc_shard_failovers_total.
#include "sys/shard.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "sys/fault.h"

namespace pc {

namespace {

// Placement ring: virtual nodes per shard, and the seed of their positions.
// 64 vnodes keep the max/min owned-key ratio near 1 for the module counts
// this repo serves.
constexpr int kVnodes = 64;
constexpr uint64_t kRingSeed = 0x5eedULL;

// The router's binder engine maps prompts to store keys and never encodes.
// It outlives every shard restart, which rebuilds the shards' engines.
EngineConfig binder_config() {
  EngineConfig config;
  config.eager_encode = false;
  return config;
}

}  // namespace

ShardRouter::ShardRouter(const Model& model, const TextTokenizer& tokenizer,
                         ShardConfig config)
    : model_(model),
      tokenizer_(tokenizer),
      config_(std::move(config)),
      binder_(model, tokenizer, binder_config()) {
  PC_CHECK_MSG(config_.n_shards > 0, "ShardRouter needs at least one shard");
  config_.replication =
      std::clamp(config_.replication, 1, config_.n_shards);

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

  // The placement ring: kVnodes per shard at splitmix64-spread positions.
  // Deterministic in n_shards only — two routers with the same shard count
  // agree on every owner set.
  ring_.reserve(static_cast<size_t>(config_.n_shards) * kVnodes);
  for (int s = 0; s < config_.n_shards; ++s) {
    for (int v = 0; v < kVnodes; ++v) {
      const uint64_t h = splitmix64(
          kRingSeed ^
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

  // Enumerate every module key (named + anonymous) of every schema, as
  // the binder loads them.
  for (const auto& src : config_.server.schemas) {
    const pml::Schema& sc = binder_.load_schema(src);
    for (const pml::ModuleNode& m : sc.modules) {
      const std::string key = sc.name + "::" + m.name;
      all_keys_.push_back(key);
      key_parts_[key] = {sc.name, m.name};
    }
  }

  // Initial placement, free of charge: each key's primary owner encodes it
  // once and the other owners copy it. A key that cannot be placed (an
  // injected encode fault, a store too small) heals on the next replicate
  // pass or encodes lazily at serve time.
  const std::vector<bool> all_alive(shards_.size(), true);
  for (const auto& key : all_keys_) {
    for (int o : module_owners(key)) place(key, o, all_alive);
  }

  pump_ = std::thread([this] { pump_loop(); });
}

ShardRouter::~ShardRouter() { stop(); }

void ShardRouter::build_shard(Shard& s, uint64_t gen_epoch) {
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
  s.server = std::make_unique<Server>(model_, tokenizer_, std::move(sc));
}

// --- Placement -------------------------------------------------------------

ShardRouter::Placement ShardRouter::place(const std::string& key, int dst,
                                          const std::vector<bool>& alive) {
  const std::vector<int> owners = module_owners(key);
  const bool dst_owns =
      std::find(owners.begin(), owners.end(), dst) != owners.end();
  Shard& d = *shards_[static_cast<size_t>(dst)];
  // An owner pins what it holds (under d.lifecycle).
  const auto pin_if_owned = [&] {
    if (dst_owns && d.owner_pinned.count(key) == 0 &&
        d.server->engine().store().pin(key)) {
      d.owner_pinned.insert(key);
    }
  };
  {
    std::lock_guard<std::mutex> lock(d.lifecycle);
    if (d.server->engine().store().contains(key)) {
      pin_if_owned();
      return {Placement::Kind::kPresent};
    }
  }
  SharedModuleStore::ModuleRef ref;
  for (int src : owners) {
    if (src == dst || !alive[static_cast<size_t>(src)]) continue;
    Shard& s = *shards_[static_cast<size_t>(src)];
    std::lock_guard<std::mutex> lock(s.lifecycle);
    if ((ref = s.server->engine().store().find(key))) break;
  }
  // No live copy: encode through the first live owner that can (pinning it
  // there), then copy from it.
  const auto parts = key_parts_.find(key);
  for (int src : owners) {
    if (ref || parts == key_parts_.end()) break;
    if (!alive[static_cast<size_t>(src)]) continue;
    Shard& s = *shards_[static_cast<size_t>(src)];
    std::lock_guard<std::mutex> lock(s.lifecycle);
    try {
      s.server->engine().pin_module(parts->second.first,
                                    parts->second.second);
    } catch (const Error&) {
      continue;  // encode fault or no room: the next owner tries
    }
    s.owner_pinned.insert(key);
    if (src == dst) return {Placement::Kind::kEncoded};
    ref = s.server->engine().store().find(key);
  }
  if (!ref) return {};
  std::lock_guard<std::mutex> lock(d.lifecycle);
  try {
    d.server->engine().store().insert(key, EncodedModule(*ref));
  } catch (const CacheError&) {
    return {};  // fits in neither of dst's tiers
  }
  pin_if_owned();
  return {Placement::Kind::kCopied, ref->payload_bytes()};
}

std::vector<bool> ShardRouter::alive_locked() const {
  std::vector<bool> alive;
  for (const auto& sp : shards_) alive.push_back(sp->alive);
  return alive;
}

std::vector<int> ShardRouter::module_owners(const std::string& key) const {
  const uint64_t h =
      splitmix64(std::hash<std::string>{}(key) ^ kRingSeed);
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

std::vector<std::string> ShardRouter::keys_of(
    const std::string& prompt) const {
  try {
    return binder_.module_keys(binder_.bind(prompt));
  } catch (const Error&) {
    return {};  // does not bind: routed by prompt hash alone
  }
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
    for (int o : module_owners(key)) {
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
  const auto keys = keys_of(prompt);
  const uint64_t h =
      splitmix64(std::hash<std::string>{}(prompt) ^ kRingSeed);
  std::lock_guard<std::mutex> lock(mutex_);
  return pick_shard_locked(keys, h);
}

bool ShardRouter::shard_has_module(int shard, const std::string& key) const {
  PC_CHECK(shard >= 0 && shard < config_.n_shards);
  Shard& s = *shards_[static_cast<size_t>(shard)];
  std::lock_guard<std::mutex> lock(s.lifecycle);
  return s.server->engine().store().contains(key);
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
        kill_locked(victim);
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
  kill_locked(shard);
}

void ShardRouter::kill_locked(int victim) {
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
  // Flush this shard's in-flight requests to the pump for re-routing.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (std::get<0>(it->first) == victim) {
      fail_over_locked(it->second);
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
  // Phase 1: snapshot the request.
  std::string prompt;
  GenerateOptions options;
  double deadline_ms = 0;
  int failovers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(rid);
    if (it == pending_.end()) return;
    prompt = it->second.prompt;
    options = it->second.options;
    deadline_ms = it->second.deadline_ms;
    failovers = it->second.failovers;
  }

  const auto keys = keys_of(prompt);
  const uint64_t prompt_hash =
      splitmix64(std::hash<std::string>{}(prompt) ^ kRingSeed);

  // Phase 2: pick a live target and snapshot its epoch + fleet liveness.
  int target = -1;
  uint64_t epoch_snap = 0;
  std::vector<bool> alive_snap;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    target = pick_shard_locked(keys, prompt_hash);
    if (target >= 0) {
      Shard& s = *shards_[static_cast<size_t>(target)];
      epoch_snap = s.epoch;
      ++s.routed;
      ++s.outstanding;  // reclaimed at delivery or by the kill flush
      alive_snap = alive_locked();
    }
  }
  if (target < 0) {
    process_failover(rid);  // all-dead handling lives there
    return;
  }
  Shard& tgt = *shards_[static_cast<size_t>(target)];

  // Phase 3: make the target serve-ready. Keys the target OWNS are its
  // responsibility (pinned at placement; re-encoded lazily after a
  // restart). Keys it doesn't own are placed on it, the copies charged
  // through cross_link; when every replica of a key is down, the request
  // degrades to full prefill.
  int owned = 0;
  size_t fetch_bytes = 0;
  uint64_t fetches = 0;
  bool force_full_prefill = false;
  std::string down_key;
  std::vector<std::string> fetched;
  for (const auto& key : keys) {
    const auto owners = module_owners(key);
    if (std::find(owners.begin(), owners.end(), target) != owners.end()) {
      ++owned;
      continue;
    }
    const Placement placed = place(key, target, alive_snap);
    if (placed.kind == Placement::Kind::kFailed &&
        std::none_of(owners.begin(), owners.end(), [&](int o) {
          return alive_snap[static_cast<size_t>(o)];
        })) {
      force_full_prefill = true;
      down_key = key;
      unavailable_degrades_.inc();
      break;
    }
    // Non-owned, whether copied, shared with a concurrent request or left
    // for the target's engine to encode at serve: streamed out at delivery.
    fetched.push_back(key);
    if (placed.kind == Placement::Kind::kCopied) {
      fetch_bytes += placed.copied_bytes;
      ++fetches;
      cross_fetches_.inc();
      cross_fetch_bytes_.inc(placed.copied_bytes);
    }
  }

  // Phase 4: hand to the shard's Server and register the inflight mapping,
  // all under the target's lifecycle: a restart cannot swap the Server
  // out, and the pump cannot book a delivery before its registration.
  SubmitOptions sopts;
  sopts.extra_stall_ms =
      fetches > 0 ? config_.cross_link.stall_s(fetch_bytes) * 1e3 : 0.0;
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
  std::lock_guard<std::mutex> lifecycle(tgt.lifecycle);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Pending& p = pending_.at(rid);
    const auto now = std::chrono::steady_clock::now();
    const bool live = tgt.alive && tgt.epoch == epoch_snap;
    if (live) {
      // The dispatch sticks: reference the non-owned keys it uses so no
      // concurrent delivery streams them out mid-serve.
      p.last_dispatch = now;
      p.fetched_keys = fetched;
      for (const auto& key : fetched) ++fetch_refs_[{target, key}];
    }
    if (deadline_ms > 0) {
      sopts.deadline_ms = deadline_ms - ms_between(p.submitted, now);
      if (sopts.deadline_ms <= 0) {
        // Expired before the target saw it. A live target takes back its
        // routing slot and the copies fetched here, as at a delivery; a
        // kill since phase 2 already reclaimed both.
        ServerResponse r;
        r.status = ServeStatus::kTimeout;
        r.detail = p.failovers > 0 ? "deadline expired during shard failover"
                                   : "deadline expired before shard dispatch";
        deliver_locked(rid, live ? target : -1, std::move(r));
        cv_done_.notify_all();
        return;
      }
    }
    if (!live) {
      fail_over_locked(rid);
      return;
    }
  }
  const uint64_t sid = tgt.server->submit(prompt, options, sopts);
  std::lock_guard<std::mutex> lock(mutex_);
  if (tgt.alive && tgt.epoch == epoch_snap) {
    inflight_[{target, epoch_snap, sid}] = rid;
  } else {
    // Killed while submit() was in flight; the zombie's delivery will
    // carry the old generation and be dropped.
    fail_over_locked(rid);
  }
}

void ShardRouter::fail_over_locked(uint64_t rid) {
  ++pending_.at(rid).failovers;
  failovers_.inc();
  Event e;
  e.kind = Event::Kind::kFailover;
  e.rid = rid;
  push_event(std::move(e));
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
  Shard& s = *shards_[static_cast<size_t>(e.shard)];
  {
    std::lock_guard<std::mutex> lifecycle(s.lifecycle);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = inflight_.find({e.shard, e.epoch, e.resp.id});
    if (it == inflight_.end()) {
      // A dead generation's output: the kill already failed the request
      // over. A live generation's delivery always finds its registration,
      // which dispatch made under this lifecycle before the pump got it.
      PC_CHECK_MSG(!s.alive || s.epoch != e.epoch,
                   "shard " << e.shard << " delivered request " << e.resp.id
                            << " before its registration");
      return;
    }
    const uint64_t rid = it->second;
    inflight_.erase(it);
    deliver_locked(rid, e.shard, std::move(e.resp));
  }
  cv_done_.notify_all();
}

void ShardRouter::deliver_locked(uint64_t rid, int shard,
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
  out.resp = std::move(resp);
  delivered_ctr_.inc();
  ++delivered_count_;
  last_delivery_ = std::chrono::steady_clock::now();
  delivered_.push_back(std::move(out));
  if (shard >= 0) {
    // The dispatch's routing slot and references. A live registration
    // implies no kill since dispatch (the flush would have consumed it),
    // so this pairs exactly with dispatch's increments.
    Shard& s = *shards_[static_cast<size_t>(shard)];
    if (s.outstanding > 0) --s.outstanding;
    for (const auto& key : p.fetched_keys) {
      auto rit = fetch_refs_.find({shard, key});
      if (rit == fetch_refs_.end() || --rit->second > 0) continue;
      fetch_refs_.erase(rit);
      s.server->engine().store().erase(key);  // nobody else uses it
    }
  }
  pending_.erase(it);
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
}

// --- Healing ---------------------------------------------------------------

uint64_t ShardRouter::replicate_now() {
  std::lock_guard<std::mutex> lock(replicate_mutex_);
  return replicate_pass();
}

uint64_t ShardRouter::replicate_pass() {
  uint64_t healed = 0;
  for (const auto& key : all_keys_) {
    std::vector<bool> alive;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      alive = alive_locked();
    }
    for (int o : module_owners(key)) {
      if (!alive[static_cast<size_t>(o)]) continue;
      const Placement placed = place(key, o, alive);
      if (placed.kind == Placement::Kind::kCopied) {
        const double stall_s = config_.cross_link.stall_s(placed.copied_bytes);
        if (stall_s > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
        }
      } else if (placed.kind != Placement::Kind::kEncoded) {
        continue;  // already resident, or not placeable: next pass retries
      }
      rereplications_.inc();
      ++healed;
    }
  }
  return healed;
}

// --- Drain / stop / stats --------------------------------------------------

std::vector<ShardResponse> ShardRouter::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [this] { return delivered_count_ == next_rid_; });
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
    cv_done_.wait(lock, [this] { return delivered_count_ == next_rid_; });
  }
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    pump_stop_ = true;
  }
  events_cv_.notify_all();
  if (pump_.joinable()) pump_.join();
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->lifecycle);
    sp->server->stop();
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
    const size_t bytes = s.server->engine().store().resident_bytes();
    out.shards[static_cast<size_t>(i)].resident_bytes = bytes;
    if (out.shards[static_cast<size_t>(i)].alive) {
      out.resident_bytes_total += bytes;
    }
  }
  return out;
}

}  // namespace pc
