// trace_report: offline latency breakdown from a Perfetto trace written by
// obs::write_perfetto_trace (bench_obs, bench_server with PC_TRACE=1, or
// Server::write_trace_json).
//
// Prints per-span aggregates plus a Fig-3-style per-request breakdown:
// each serve span on each lane is decomposed into its direct stage
// children (tokenize_bind, ensure_encoded, kv_concat, prefill, decode),
// with the encode/single-flight detail nested under ensure_encoded and the
// queue wait taken from the serve_request "queue_us" arg. Exits nonzero on
// usage errors or malformed input so CI can use it as a smoke check.
//
// Request-inspector mode: trace_report --requests <requests.jsonl> reads a
// request-timeline log (Server::write_request_log or the PC_REQLOG sink,
// one timeline_json object per line), validates it (unique ids, exactly one
// terminal outcome each), and prints outcome counts, an aggregate
// cache-efficacy table, the mean TTFT critical path, and a top-N slowest
// waterfall. Exits nonzero on violations so CI can use it as an invariant
// check over chaos runs.
//
// Usage: trace_report <trace.json>
//        trace_report --requests <requests.jsonl> [--top N]
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/json_reader.h"

namespace {

using pc::obs::JsonReader;
using pc::obs::JsonValue;

struct Event {
  std::string name;
  double ts_us = 0;
  double dur_us = 0;
  std::map<std::string, double> args;
};

struct Lane {
  std::string name;
  uint64_t dropped = 0;
  std::vector<Event> events;
};

// Stages attributed directly against a serve span. Disjoint by
// construction: each is a distinct phase of PromptCacheEngine::serve, and
// encode_module / single_flight_wait (which nest inside ensure_encoded)
// are reported as detail lines instead to avoid double counting.
const char* const kStages[] = {"tokenize_bind", "ensure_encoded", "kv_concat",
                               "prefill", "decode"};

struct Agg {
  uint64_t count = 0;
  double total_us = 0;
  double max_us = 0;

  void add(double us) {
    ++count;
    total_us += us;
    max_us = std::max(max_us, us);
  }
  double mean_us() const {
    return count == 0 ? 0 : total_us / static_cast<double>(count);
  }
};

bool contains(const Event& outer, const Event& inner) {
  return &outer != &inner && inner.ts_us >= outer.ts_us &&
         inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us;
}

std::map<int64_t, Lane> load_lanes(const JsonValue& root) {
  std::map<int64_t, Lane> lanes;
  const JsonValue& events = root["traceEvents"];
  PC_CHECK_MSG(events.is_array(), "trace has no traceEvents array");
  for (const JsonValue& e : events.array) {
    if (!e.is_object()) continue;
    const int64_t tid = static_cast<int64_t>(e["tid"].as_number(-1));
    Lane& lane = lanes[tid];
    const std::string& ph = e["ph"].as_string();
    const std::string& name = e["name"].as_string();
    if (ph == "M") {
      if (name == "thread_name") lane.name = e["args"]["name"].as_string();
    } else if (ph == "i") {
      if (name == "ring_dropped_events") {
        lane.dropped +=
            static_cast<uint64_t>(e["args"]["dropped"].as_number(0));
      }
    } else if (ph == "X") {
      Event ev;
      ev.name = name;
      ev.ts_us = e["ts"].as_number(0);
      ev.dur_us = e["dur"].as_number(0);
      for (const auto& [key, value] : e["args"].object) {
        ev.args[key] = value.as_number(0);
      }
      lane.events.push_back(std::move(ev));
    }
  }
  for (auto& [tid, lane] : lanes) {
    (void)tid;
    std::sort(lane.events.begin(), lane.events.end(),
              [](const Event& a, const Event& b) {
                return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                          : a.dur_us > b.dur_us;
              });
  }
  return lanes;
}

void print_table_row(const std::string& label, const Agg& a,
                     double share_base_us, int indent = 0) {
  if (a.count == 0) return;
  char line[160];
  const std::string name(std::string(static_cast<size_t>(indent), ' ') +
                         label);
  std::snprintf(line, sizeof(line),
                "  %-26s %8" PRIu64 " %11.3f %11.4f %8.1f%%\n", name.c_str(),
                a.count, a.total_us / 1e3, a.mean_us() / 1e3,
                share_base_us > 0 ? 100.0 * a.total_us / share_base_us : 0.0);
  std::cout << line;
}

int report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_report: cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue root = JsonReader::parse(buf.str());
  const std::map<int64_t, Lane> lanes = load_lanes(root);

  size_t total_events = 0;
  uint64_t dropped = 0;
  int worker_lanes = 0;
  for (const auto& [tid, lane] : lanes) {
    (void)tid;
    total_events += lane.events.size();
    dropped += lane.dropped;
    if (!lane.events.empty() && lane.name.rfind("worker", 0) == 0) {
      ++worker_lanes;
    }
  }
  std::cout << "trace: " << path << "\n"
            << "lanes: " << lanes.size() << " (" << worker_lanes
            << " worker), events: " << total_events
            << ", dropped: " << dropped << "\n";

  // Per-span aggregates across all lanes.
  std::map<std::string, Agg> by_name;
  for (const auto& [tid, lane] : lanes) {
    (void)tid;
    for (const Event& e : lane.events) by_name[e.name].add(e.dur_us);
  }
  std::cout << "\n== span aggregates ==\n";
  char line[160];
  std::snprintf(line, sizeof(line), "  %-26s %8s %11s %11s %11s\n", "span",
                "count", "total ms", "mean ms", "max ms");
  std::cout << line;
  for (const auto& [name, a] : by_name) {
    std::snprintf(line, sizeof(line),
                  "  %-26s %8" PRIu64 " %11.3f %11.4f %11.3f\n", name.c_str(),
                  a.count, a.total_us / 1e3, a.mean_us() / 1e3,
                  a.max_us / 1e3);
    std::cout << line;
  }

  // Fig-3-style breakdown: decompose every serve / serve_baseline span
  // into its stage children, per lane (spans nest strictly per thread).
  Agg serve_total, other;
  std::map<std::string, Agg> stage_agg;
  Agg encode_detail, single_flight_detail, queue_wait, link_stall;
  for (const auto& [tid, lane] : lanes) {
    (void)tid;
    for (const Event& outer : lane.events) {
      if (outer.name == "serve_request") {
        const auto q = outer.args.find("queue_us");
        if (q != outer.args.end()) queue_wait.add(q->second);
        continue;
      }
      if (outer.name == "link_stall") {
        link_stall.add(outer.dur_us);
        continue;
      }
      if (outer.name != "serve" && outer.name != "serve_baseline") continue;
      serve_total.add(outer.dur_us);
      double attributed_us = 0;
      for (const Event& child : lane.events) {
        if (!contains(outer, child)) continue;
        for (const char* stage : kStages) {
          if (child.name == stage) {
            stage_agg[stage].add(child.dur_us);
            attributed_us += child.dur_us;
            break;
          }
        }
        if (child.name == "encode_module" || child.name == "encode_scaffold") {
          encode_detail.add(child.dur_us);
        } else if (child.name == "single_flight_wait") {
          single_flight_detail.add(child.dur_us);
        }
      }
      other.add(std::max(0.0, outer.dur_us - attributed_us));
    }
  }

  std::cout << "\n== request breakdown (Fig. 3 style) ==\n";
  if (serve_total.count == 0) {
    std::cout << "  (no serve spans in trace)\n";
    return 0;
  }
  std::snprintf(line, sizeof(line), "  %-26s %8s %11s %11s %9s\n", "stage",
                "count", "total ms", "mean ms", "share");
  std::cout << line;
  for (const char* stage : kStages) {
    print_table_row(stage, stage_agg[stage], serve_total.total_us);
    if (std::string(stage) == "ensure_encoded") {
      print_table_row("encode payloads", encode_detail, serve_total.total_us,
                      2);
      print_table_row("single-flight wait", single_flight_detail,
                      serve_total.total_us, 2);
    }
  }
  print_table_row("(unattributed)", other, serve_total.total_us);
  print_table_row("serve total", serve_total, serve_total.total_us);
  if (queue_wait.count > 0 || link_stall.count > 0) {
    std::cout << "\n== outside serve ==\n";
    std::snprintf(line, sizeof(line), "  %-26s %8s %11s %11s\n", "stage",
                  "count", "total ms", "mean ms");
    std::cout << line;
    const auto row = [&](const char* label, const Agg& a) {
      if (a.count == 0) return;
      std::snprintf(line, sizeof(line), "  %-26s %8" PRIu64 " %11.3f %11.4f\n",
                    label, a.count, a.total_us / 1e3, a.mean_us() / 1e3);
      std::cout << line;
    };
    row("queue wait", queue_wait);
    row("link_stall", link_stall);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --requests mode: request-timeline JSONL inspector.

struct Req {
  uint64_t id = 0;
  uint64_t server = 0;  // instance tag: ids restart at 0 per server
  int lane = -1;
  bool batched = false;
  std::string outcome;
  double queue_ms = 0, encode_ms = 0, retrieve_ms = 0, transfer_ms = 0;
  double prefill_ms = 0, decode_ms = 0, ttft_ms = 0, service_ms = 0;
  double predicted_ttft_ms = 0;
  int64_t cached = 0, uncached = 0, modules = 0, misses = 0, chunks = 0;
  double bytes_host = 0, bytes_device = 0, bytes_zero = 0;
  std::string kv_format, detail;
  int retries = 0;
  bool deadline_met = true;
  size_t annotations = 0;
};

bool is_served_outcome(const std::string& o) {
  return o == "ok" || o == "degraded";
}

std::vector<Req> load_requests(const std::string& path) {
  std::ifstream in(path);
  PC_CHECK_MSG(static_cast<bool>(in), "cannot open " << path);
  std::vector<Req> reqs;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const JsonValue v = JsonReader::parse(line);
    PC_CHECK_MSG(v.is_object(), "line " << line_no << ": not a JSON object");
    Req r;
    r.id = static_cast<uint64_t>(v["id"].as_number(0));
    r.server = static_cast<uint64_t>(v["server"].as_number(0));
    r.lane = static_cast<int>(v["lane"].as_number(-1));
    r.batched = v["batched"].boolean;
    r.outcome = v["outcome"].as_string();
    r.queue_ms = v["queue_ms"].as_number(0);
    r.encode_ms = v["encode_ms"].as_number(0);
    r.retrieve_ms = v["retrieve_ms"].as_number(0);
    r.transfer_ms = v["transfer_ms"].as_number(0);
    r.prefill_ms = v["prefill_ms"].as_number(0);
    r.decode_ms = v["decode_ms"].as_number(0);
    r.ttft_ms = v["ttft_ms"].as_number(0);
    r.service_ms = v["service_ms"].as_number(0);
    r.predicted_ttft_ms = v["predicted_ttft_ms"].as_number(0);
    r.cached = static_cast<int64_t>(v["cached_tokens"].as_number(0));
    r.uncached = static_cast<int64_t>(v["uncached_tokens"].as_number(0));
    r.modules = static_cast<int64_t>(v["modules"].as_number(0));
    r.misses = static_cast<int64_t>(v["module_misses"].as_number(0));
    r.chunks = static_cast<int64_t>(v["prefill_chunks"].as_number(0));
    r.bytes_host = v["bytes_from_host"].as_number(0);
    r.bytes_device = v["bytes_from_device"].as_number(0);
    r.bytes_zero = v["bytes_zero_copy"].as_number(0);
    r.kv_format = v["kv_format"].as_string();
    r.detail = v["detail"].as_string();
    r.retries = static_cast<int>(v["retries"].as_number(0));
    r.deadline_met = v["deadline_met"].boolean;
    r.annotations = v["annotations"].array.size();
    PC_CHECK_MSG(v["outcome"].kind == JsonValue::Kind::kString,
                 "line " << line_no << ": missing outcome");
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// Scaled phase waterfall: one character per bucket, left to right in
// lifecycle order — '.' queue, 'e' encode, 't' transfer, 'r' retrieve,
// 'p' prefill, 'd' decode.
std::string waterfall(const Req& r, double scale_ms, int width) {
  const struct {
    char c;
    double ms;
  } phases[] = {{'.', r.queue_ms},    {'e', r.encode_ms},
                {'t', r.transfer_ms}, {'r', r.retrieve_ms},
                {'p', r.prefill_ms},  {'d', r.decode_ms}};
  std::string out;
  if (scale_ms <= 0) return out;
  for (const auto& ph : phases) {
    const int cells = static_cast<int>(ph.ms / scale_ms *
                                       static_cast<double>(width));
    out.append(static_cast<size_t>(std::max(ph.ms > 0 ? 1 : 0, cells)),
               ph.c);
  }
  if (static_cast<int>(out.size()) > width) out.resize(static_cast<size_t>(width));
  return out;
}

int report_requests(const std::string& path, int top_n) {
  const std::vector<Req> reqs = load_requests(path);
  std::cout << "request log: " << path << "\n";
  if (reqs.empty()) {
    std::cout << "  (no requests)\n";
    return 0;
  }

  // Invariants: every (server, id) pair unique — ids restart at 0 per
  // server and a process-wide PC_REQLOG may span several — and every
  // record carries a terminal outcome.
  std::set<std::pair<uint64_t, uint64_t>> ids;
  std::map<std::string, uint64_t> outcomes;
  int violations = 0;
  for (const Req& r : reqs) {
    if (!ids.insert({r.server, r.id}).second) {
      std::cerr << "VIOLATION: duplicate request id " << r.id
                << " (server " << r.server << ")\n";
      ++violations;
    }
    if (r.outcome == "pending" || r.outcome.empty()) {
      std::cerr << "VIOLATION: request " << r.id
                << " has no terminal outcome\n";
      ++violations;
    }
    ++outcomes[r.outcome];
  }

  std::cout << "requests: " << reqs.size() << "  outcomes:";
  for (const auto& [name, n] : outcomes) {
    std::cout << " " << name << "=" << n;
  }
  std::cout << "\n";

  uint64_t retries = 0, misses_deadline = 0, with_annotations = 0;
  for (const Req& r : reqs) {
    retries += static_cast<uint64_t>(r.retries);
    if (!r.deadline_met) ++misses_deadline;
    if (r.annotations > 0) ++with_annotations;
  }
  std::cout << "retries: " << retries
            << ", deadline misses: " << misses_deadline
            << ", annotated: " << with_annotations << "\n";

  // Cache efficacy over served requests.
  int64_t cached = 0, uncached = 0, modules = 0, misses = 0, chunks = 0;
  double bytes_host = 0, bytes_device = 0, bytes_zero = 0;
  uint64_t served = 0;
  std::set<std::string> formats;
  for (const Req& r : reqs) {
    misses += r.misses;  // encodes happen on any outcome that reached a lane
    if (!is_served_outcome(r.outcome)) continue;
    ++served;
    cached += r.cached;
    uncached += r.uncached;
    modules += r.modules;
    chunks += r.chunks;
    bytes_host += r.bytes_host;
    bytes_device += r.bytes_device;
    bytes_zero += r.bytes_zero;
    if (!r.kv_format.empty()) formats.insert(r.kv_format);
  }
  std::cout << "\n== cache efficacy (served requests) ==\n";
  const int64_t prompt_tokens = cached + uncached;
  char line[200];
  std::snprintf(line, sizeof(line),
                "  prompt tokens: %" PRId64 " (cached %" PRId64
                ", uncached %" PRId64 ", cached share %.1f%%)\n",
                prompt_tokens, cached, uncached,
                prompt_tokens > 0
                    ? 100.0 * static_cast<double>(cached) /
                          static_cast<double>(prompt_tokens)
                    : 0.0);
  std::cout << line;
  const int64_t lookups = modules + misses;
  std::snprintf(line, sizeof(line),
                "  modules reused: %" PRId64 ", encoded (misses): %" PRId64
                " (hit share %.1f%%), prefill chunks: %" PRId64 "\n",
                modules, misses,
                lookups > 0 ? 100.0 * static_cast<double>(modules) /
                                  static_cast<double>(lookups)
                            : 0.0,
                chunks);
  std::cout << line;
  std::snprintf(line, sizeof(line),
                "  KV moved: host %.1f KiB, device %.1f KiB, zero-copy %.1f "
                "KiB\n",
                bytes_host / 1024, bytes_device / 1024, bytes_zero / 1024);
  std::cout << line;
  std::cout << "  kv formats:";
  for (const auto& f : formats) std::cout << " " << f;
  std::cout << "\n";

  // Mean TTFT critical path over served requests. The phases are disjoint
  // components of the end-to-end TTFT (queue + transfer + retrieve +
  // prefill); encode and decode sit outside it but are shown for context.
  if (served > 0) {
    double q = 0, e = 0, t = 0, rtr = 0, p = 0, d = 0, ttft = 0, drift_sum = 0;
    uint64_t drift_n = 0;
    for (const Req& r : reqs) {
      if (!is_served_outcome(r.outcome)) continue;
      q += r.queue_ms;
      e += r.encode_ms;
      t += r.transfer_ms;
      rtr += r.retrieve_ms;
      p += r.prefill_ms;
      d += r.decode_ms;
      ttft += r.ttft_ms;
      if (r.predicted_ttft_ms > 0) {
        drift_sum += (r.retrieve_ms + r.prefill_ms) / r.predicted_ttft_ms;
        ++drift_n;
      }
    }
    const double n = static_cast<double>(served);
    std::cout << "\n== mean TTFT critical path (" << served << " served) ==\n";
    const auto row = [&](const char* label, double total, bool in_ttft) {
      std::snprintf(line, sizeof(line), "  %-12s %9.3f ms %s\n", label,
                    total / n,
                    in_ttft && ttft > 0
                        ? (std::string("(") +
                           std::to_string(static_cast<int>(
                               100.0 * total / ttft)) +
                           "% of TTFT)")
                              .c_str()
                        : "");
      std::cout << line;
    };
    row("queue", q, true);
    row("transfer", t, true);
    row("retrieve", rtr, true);
    row("prefill", p, true);
    row("ttft (e2e)", ttft, false);
    row("encode", e, false);
    row("decode", d, false);
    if (drift_n > 0) {
      std::snprintf(line, sizeof(line),
                    "  model drift: measured/predicted engine TTFT = %.2fx "
                    "over %" PRIu64 " predicted serves\n",
                    drift_sum / static_cast<double>(drift_n), drift_n);
      std::cout << line;
    }
  }

  // Top-N slowest served requests, with a scaled phase waterfall.
  std::vector<const Req*> slow;
  for (const Req& r : reqs) {
    if (is_served_outcome(r.outcome)) slow.push_back(&r);
  }
  std::sort(slow.begin(), slow.end(), [](const Req* a, const Req* b) {
    return a->ttft_ms > b->ttft_ms;
  });
  if (static_cast<int>(slow.size()) > top_n) {
    slow.resize(static_cast<size_t>(top_n));
  }
  if (!slow.empty()) {
    const double scale = slow.front()->ttft_ms;
    std::cout << "\n== slowest requests (.queue e:encode t:transfer "
                 "r:retrieve p:prefill d:decode) ==\n";
    for (const Req* r : slow) {
      std::snprintf(line, sizeof(line),
                    "  #%-6" PRIu64 " %-8s lane %2d  ttft %9.3f ms  "
                    "cached %4" PRId64 "/%-4" PRId64 " |%s\n",
                    r->id, r->outcome.c_str(), r->lane, r->ttft_ms, r->cached,
                    r->cached + r->uncached,
                    waterfall(*r, scale, 40).c_str());
      std::cout << line;
    }
  }

  if (violations > 0) {
    std::cerr << "trace_report: " << violations << " invariant violation(s)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (!args.empty() && args[0] == "--requests") {
      int top_n = 10;
      if (args.size() == 4 && args[2] == "--top") {
        top_n = std::atoi(args[3].c_str());
      } else if (args.size() != 2) {
        std::cerr << "usage: trace_report --requests <requests.jsonl> "
                     "[--top N]\n";
        return 2;
      }
      if (top_n <= 0) top_n = 10;
      return report_requests(args[1], top_n);
    }
    if (args.size() != 1) {
      std::cerr << "usage: trace_report <trace.json>\n"
                   "       trace_report --requests <requests.jsonl> [--top N]\n";
      return 2;
    }
    return report(args[0]);
  } catch (const pc::Error& e) {
    std::cerr << "trace_report: " << e.what() << "\n";
    return 1;
  }
}
