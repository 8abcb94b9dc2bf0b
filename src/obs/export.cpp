#include "obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pc::obs {

void write_json_escaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

namespace {

void write_number(std::ostream& os, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  os << buf;
}

}  // namespace

void export_perfetto_json(std::ostream& os) {
  const std::vector<ThreadTrace> traces = collect_traces();
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const ThreadTrace& t : traces) {
    // Lane label. pid is constant: one process.
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << t.tid
       << ",\"args\":{\"name\":\"";
    write_json_escaped(os, t.name);
    os << "\"}}";
    if (t.dropped > 0) {
      // Surface ring wrap in the trace itself (instant event at t=0).
      sep();
      os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"ring_dropped_events\","
            "\"pid\":1,\"tid\":"
         << t.tid << ",\"ts\":0,\"args\":{\"dropped\":" << t.dropped << "}}";
    }
    for (const TraceEvent& e : t.events) {
      sep();
      const char* name = e.name != nullptr ? e.name : "?";
      if (e.kind == EventKind::kFlowStart || e.kind == EventKind::kFlowStep ||
          e.kind == EventKind::kFlowEnd) {
        // Flow legs: "s" starts the arc, "t" passes through, "f" ends it.
        // bp:"e" binds the end leg to its enclosing slice, which is how one
        // request's submit span connects to the batch_admit span of the
        // lane that served it.
        const char ph = e.kind == EventKind::kFlowStart  ? 's'
                        : e.kind == EventKind::kFlowStep ? 't'
                                                         : 'f';
        os << "{\"ph\":\"" << ph << "\",\"cat\":\"req\",\"id\":" << e.flow_id
           << ",\"name\":\"";
        write_json_escaped(os, name);
        os << "\",\"pid\":1,\"tid\":" << t.tid << ",\"ts\":";
        write_number(os, static_cast<double>(e.start_ns) / 1e3);
        if (e.kind == EventKind::kFlowEnd) os << ",\"bp\":\"e\"";
        os << "}";
        continue;
      }
      if (e.kind == EventKind::kInstant) {
        os << "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"";
        write_json_escaped(os, name);
        os << "\",\"pid\":1,\"tid\":" << t.tid << ",\"ts\":";
        write_number(os, static_cast<double>(e.start_ns) / 1e3);
      } else {
        os << "{\"ph\":\"X\",\"name\":\"";
        write_json_escaped(os, name);
        os << "\",\"pid\":1,\"tid\":" << t.tid << ",\"ts\":";
        write_number(os, static_cast<double>(e.start_ns) / 1e3);
        os << ",\"dur\":";
        write_number(os, static_cast<double>(e.end_ns - e.start_ns) / 1e3);
      }
      bool any_args = false;
      for (const SpanArg& a : e.args) {
        if (a.key == nullptr) continue;
        os << (any_args ? "," : ",\"args\":{") << "\"";
        write_json_escaped(os, a.key);
        os << "\":" << a.value;
        any_args = true;
      }
      if (any_args) os << "}";
      os << "}";
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool write_perfetto_trace(const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  export_perfetto_json(os);
  os.flush();
  return static_cast<bool>(os);
}

namespace {

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "summary";
  }
  return "untyped";
}

}  // namespace

void export_prometheus(std::ostream& os) {
  for (const auto& f : MetricsRegistry::global().collect()) {
    if (!f.help.empty()) os << "# HELP " << f.name << " " << f.help << "\n";
    os << "# TYPE " << f.name << " " << type_name(f.type) << "\n";
    switch (f.type) {
      case MetricType::kCounter:
        os << f.name << " " << f.counter_value << "\n";
        break;
      case MetricType::kGauge:
        os << f.name << " " << f.gauge_value << "\n";
        break;
      case MetricType::kHistogram: {
        const LatencyHistogram& h = f.histogram_value;
        for (double q : {0.5, 0.9, 0.99}) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%g", q);
          os << f.name << "{quantile=\"" << buf << "\"} "
             << h.quantile_seconds(q) << "\n";
        }
        os << f.name << "_sum " << h.sum_seconds() << "\n";
        os << f.name << "_count " << h.count() << "\n";
        break;
      }
    }
  }
  os << "# TYPE pc_trace_dropped_events_total counter\n"
     << "pc_trace_dropped_events_total " << dropped_events() << "\n";
}

bool write_prometheus_file(const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  export_prometheus(os);
  os.flush();
  return static_cast<bool>(os);
}

std::string prometheus_text() {
  std::ostringstream os;
  export_prometheus(os);
  return os.str();
}

void print_summary(std::ostream& os) {
  struct Agg {
    uint64_t count = 0;
    double total_ms = 0;
    double max_ms = 0;
  };
  std::map<std::string, Agg> by_name;
  uint64_t dropped = 0;
  for (const ThreadTrace& t : collect_traces()) {
    dropped += t.dropped;
    for (const TraceEvent& e : t.events) {
      Agg& a = by_name[e.name != nullptr ? e.name : "?"];
      const double ms = static_cast<double>(e.end_ns - e.start_ns) / 1e6;
      ++a.count;
      a.total_ms += ms;
      a.max_ms = std::max(a.max_ms, ms);
    }
  }

  os << "== spans ==\n";
  if (by_name.empty()) {
    os << "  (no events recorded"
       << (tracing_enabled() ? "" : "; tracing is disabled") << ")\n";
  } else {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-24s %10s %12s %12s %12s\n", "span",
                  "count", "total ms", "mean ms", "max ms");
    os << line;
    for (const auto& [name, a] : by_name) {
      std::snprintf(line, sizeof(line),
                    "  %-24s %10" PRIu64 " %12.3f %12.4f %12.3f\n",
                    name.c_str(), a.count, a.total_ms,
                    a.total_ms / static_cast<double>(a.count), a.max_ms);
      os << line;
    }
  }
  if (dropped > 0) {
    os << "  (ring wrap dropped " << dropped << " events)\n";
  }

  os << "== metrics ==\n";
  for (const auto& f : MetricsRegistry::global().collect()) {
    switch (f.type) {
      case MetricType::kCounter:
        os << "  " << f.name << " = " << f.counter_value << "\n";
        break;
      case MetricType::kGauge:
        os << "  " << f.name << " = " << f.gauge_value << "\n";
        break;
      case MetricType::kHistogram:
        os << "  " << f.name << ": " << f.histogram_value.summary() << "\n";
        break;
    }
  }
}

}  // namespace pc::obs
