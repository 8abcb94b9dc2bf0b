// Observability exporters: Chrome/Perfetto trace JSON, Prometheus text
// format, and a human summary table. All three read the process-global
// tracer rings (obs/trace.h) and metrics registry (obs/metrics.h), so any
// layer — Server, engine, a bench main — can emit them on demand.
//
// Capture and read a trace:
//   pc::obs::set_tracing(true);           // or run with PC_TRACE=trace.json
//   ... serve traffic ...
//   pc::obs::write_perfetto_trace("trace.json");
//   -> open ui.perfetto.dev, drag the file in: one lane per thread
//      (lane0..N, poolK), nested admit/encode/concat and batch_step spans.
#pragma once

#include <iosfwd>
#include <string>

namespace pc::obs {

// Chrome trace_event JSON ("X" complete events, one lane per recorded
// thread, thread_name metadata, ring-drop counts as lane args). Loadable
// by ui.perfetto.dev and chrome://tracing.
void export_perfetto_json(std::ostream& os);
// Convenience wrapper; returns false (and logs nothing) on I/O failure.
bool write_perfetto_trace(const std::string& path);

// Prometheus text exposition of every registry family, plus the tracer's
// own pc_trace_dropped_events_total. Histograms export as summaries
// (quantile 0.5/0.9/0.99 labels + _sum + _count).
void export_prometheus(std::ostream& os);
bool write_prometheus_file(const std::string& path);
std::string prometheus_text();

// Human-readable dump: per-span-name aggregates (count, total/mean/max ms)
// followed by every metric family. The --obs-summary view.
void print_summary(std::ostream& os);

}  // namespace pc::obs
