// Kernel microbenchmarks: vectorized/blocked/fused kernels vs. the seed's
// scalar implementations, plus an end-to-end TTFT measurement on a tiny
// model. Prints paper-shaped tables and writes machine-readable results to
// BENCH_kernels.json in the current directory (repo root when launched via
// scripts/run_all.sh).
//
// The scalar references below are verbatim ports of the pre-vectorization
// kernels. The build uses -O3 without -ffast-math, so the compiler cannot
// auto-vectorize their float reductions — they measure what the seed
// actually ran.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "kv/quant.h"
#include "model/model.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace {

using namespace pc;

// ---- seed scalar kernels (pre-vectorization references) ---------------------

float scalar_dot(const float* a, const float* b, size_t n) {
  float s = 0.0f;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

void scalar_gemm_nt(const float* a, const float* b, float* c, size_t m,
                    size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      c[i * n + j] = scalar_dot(a + i * k, b + j * k, k);
    }
  }
}

// The seed's per-(head, query) attention inner loop: scalar scores, scalar
// two-pass softmax, and a zero-skipping scalar V mix.
void scalar_attention(const float* q, const float* k, const float* v,
                      size_t stride, size_t d_head, size_t n_ctx, float scale,
                      float* scores, float* out) {
  for (size_t j = 0; j < n_ctx; ++j) {
    scores[j] = scalar_dot(q, k + j * stride, d_head) * scale;
  }
  float mx = scores[0];
  for (size_t j = 1; j < n_ctx; ++j) mx = std::max(mx, scores[j]);
  float sum = 0.0f;
  for (size_t j = 0; j < n_ctx; ++j) {
    scores[j] = std::exp(scores[j] - mx);
    sum += scores[j];
  }
  const float inv = 1.0f / sum;
  for (size_t j = 0; j < n_ctx; ++j) scores[j] *= inv;
  std::fill(out, out + d_head, 0.0f);
  for (size_t j = 0; j < n_ctx; ++j) {
    const float w = scores[j];
    if (w == 0.0f) continue;
    const float* vr = v + j * stride;
    for (size_t e = 0; e < d_head; ++e) out[e] += w * vr[e];
  }
}

// ---- measurement ------------------------------------------------------------

// Repeats fn until `min_seconds` of wall time accumulates and returns the
// mean per-call milliseconds. A volatile sink keeps results live.
volatile float g_sink = 0.0f;

template <typename Fn>
double time_ms(Fn&& fn, double min_seconds = 0.08) {
  fn();  // warm-up (page in buffers, warm caches)
  size_t iters = 0;
  WallTimer timer;
  do {
    fn();
    ++iters;
  } while (timer.elapsed_seconds() < min_seconds);
  return timer.elapsed_ms() / static_cast<double>(iters);
}

std::vector<float> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-0.5f, 0.5f);
  return v;
}

struct JsonRow {
  std::string section;
  std::string shape;
  double scalar_ms;
  double vector_ms;
};

std::vector<JsonRow> g_json;

// End-to-end TTFT is a single measurement per shape, not a scalar/vector
// comparison — it gets its own JSON section (a ttft row used to be forced
// into JsonRow, producing meaningless "speedup": 1.000 entries).
struct TtftRow {
  std::string shape;
  double ms;
  double prefill_tok_s;
};

std::vector<TtftRow> g_ttft_json;

double record(TablePrinter& table, const std::string& section,
              const std::string& shape, double scalar_ms, double vector_ms) {
  const double speedup = scalar_ms / vector_ms;
  table.add_row({shape, TablePrinter::fmt_ms(scalar_ms),
                 TablePrinter::fmt_ms(vector_ms),
                 TablePrinter::fmt_times(speedup)});
  g_json.push_back({section, shape, scalar_ms, vector_ms});
  return speedup;
}

void bench_dot() {
  TablePrinter table("dot product (scalar vs " +
                     std::string(simd::isa_name()) + ")");
  table.set_header({"n", "scalar", "simd", "speedup"});
  for (size_t n : {32u, 64u, 128u, 512u, 4096u}) {
    const auto a = random_vec(n, 1 + n);
    const auto b = random_vec(n, 2 + n);
    // Batch many calls per sample so sub-microsecond kernels measure cleanly.
    const size_t reps = 4096;
    const double s = time_ms([&] {
      float acc = 0.0f;
      for (size_t r = 0; r < reps; ++r) acc += scalar_dot(a.data(), b.data(), n);
      g_sink = acc;
    });
    const double w = time_ms([&] {
      float acc = 0.0f;
      for (size_t r = 0; r < reps; ++r) acc += simd::dot(a.data(), b.data(), n);
      g_sink = acc;
    });
    record(table, "dot", "n=" + std::to_string(n), s / reps, w / reps);
  }
  table.print(std::cout);
}

double bench_gemm_nt() {
  TablePrinter table("gemm_nt: C[m,n] = A[m,k] * B[n,k]^T");
  table.set_header({"m,k,n", "scalar", "blocked+simd", "speedup"});
  double required_speedup = 0.0;
  struct Shape { size_t m, k, n; };
  std::vector<Shape> shapes = {{1, 192, 192},   {8, 192, 512},
                               {64, 512, 512},  {16, 768, 768}};
  if (bench::full_mode()) shapes.push_back({64, 1024, 1024});
  for (const auto& sh : shapes) {
    const auto a = random_vec(sh.m * sh.k, 3 + sh.k);
    const auto b = random_vec(sh.n * sh.k, 5 + sh.k);
    std::vector<float> c(sh.m * sh.n);
    const double s = time_ms(
        [&] { scalar_gemm_nt(a.data(), b.data(), c.data(), sh.m, sh.k, sh.n);
              g_sink = c[0]; });
    const double w = time_ms(
        [&] { gemm_nt(a.data(), b.data(), c.data(), sh.m, sh.k, sh.n);
              g_sink = c[0]; });
    std::ostringstream shape;
    shape << sh.m << "," << sh.k << "," << sh.n;
    const double speedup = record(table, "gemm_nt", shape.str(), s, w);
    if (sh.m == 64 && sh.k == 512 && sh.n == 512) required_speedup = speedup;
  }
  table.print(std::cout);
  return required_speedup;
}

void bench_attention() {
  TablePrinter table("attention inner loop, one head (d_head=64)");
  table.set_header({"ctx", "scalar", "fused", "speedup"});
  const size_t d_head = 64, kv_dim = 128;
  std::vector<size_t> ctxs = {128, 512, 1024, 2048};
  if (bench::full_mode()) ctxs.push_back(4096);
  for (size_t ctx : ctxs) {
    const auto q = random_vec(d_head, 7 + ctx);
    const auto k = random_vec(ctx * kv_dim, 11 + ctx);
    const auto v = random_vec(ctx * kv_dim, 13 + ctx);
    std::vector<float> scores(ctx), out(d_head);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
    const double s = time_ms([&] {
      scalar_attention(q.data(), k.data(), v.data(), kv_dim, d_head, ctx,
                       scale, scores.data(), out.data());
      g_sink = out[0];
    });
    const double w = time_ms([&] {
      attn_fused_contig(q.data(), k.data(), v.data(), kv_dim, d_head, ctx,
                        scale, 0.0f, nullptr, nullptr, scores.data(),
                        out.data());
      g_sink = out[0];
    });
    record(table, "attention", "ctx=" + std::to_string(ctx), s, w);
  }
  table.print(std::cout);
}

// One GQA group at llama_tiny's shape (6 query heads on 3 KV heads: n_q 2,
// d_head 32, kv rows of 96 floats): the group's heads as two single-head
// calls against one grouped call, which reads each K/V row once for both
// heads. Same arithmetic, same bits; the rows differ only in memory traffic
// and in how the per-slot work is shared.
void bench_attention_grouped() {
  TablePrinter table("attention, one GQA group (n_q=2, d_head=32, kv=96)");
  table.set_header({"ctx", "2 x single-head", "grouped", "speedup"});
  const size_t n_q = 2, d_head = 32, kv_dim = 96;
  for (size_t ctx : {1024u, 2048u}) {
    const auto q = random_vec(n_q * d_head, 43 + ctx);
    const auto k = random_vec(ctx * kv_dim, 47 + ctx);
    const auto v = random_vec(ctx * kv_dim, 53 + ctx);
    std::vector<float> scores(n_q * ctx), out(n_q * d_head);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
    const double s = time_ms([&] {
      for (size_t h = 0; h < n_q; ++h) {
        attn_fused_contig(q.data() + h * d_head, k.data(), v.data(), kv_dim,
                          d_head, ctx, scale, 0.0f, nullptr, nullptr,
                          scores.data(), out.data() + h * d_head);
      }
      g_sink = out[0];
    });
    const double w = time_ms([&] {
      attn_fused_contig(q.data(), k.data(), v.data(), kv_dim, d_head, ctx,
                        scale, nullptr, nullptr, nullptr, scores.data(),
                        out.data(), n_q);
      g_sink = out[0];
    });
    record(table, "attention_grouped", "ctx=" + std::to_string(ctx), s, w);
  }
  table.print(std::cout);
}

// Decode-style attention over a quantized (Q8_0) context: one query head
// against ctx cached rows held as int8 + per-row scale. Compares the naive
// retrieval strategy — dequantize every K/V row to fp32, then run the fp32
// fused kernel — against attn_fused_q8_gather, which scores q·k in the int8
// domain and mixes V straight from int8 (no fp32 materialization of the
// cached rows). The dequantize cost recurs every step on a decode path, so
// this is the per-token contrast. Returns whether the int8 kernel wins at
// ctx=1024 (the PR's acceptance bound: int8 fused must beat
// dequantize-then-fp32 at ctx >= 1K).
bool bench_q8_attention() {
  TablePrinter table("q8 attention, one head (d_head=64, int8 context)");
  table.set_header({"ctx", "dequant+fp32", "int8 fused", "speedup"});
  const size_t d_head = 64, kv_dim = 128, head_off = 64;
  std::vector<size_t> ctxs = {256, 1024, 2048};
  if (bench::full_mode()) ctxs.push_back(4096);
  bool beats_at_1k = false;
  for (size_t ctx : ctxs) {
    const auto kf = random_vec(ctx * kv_dim, 17 + ctx);
    const auto vf = random_vec(ctx * kv_dim, 19 + ctx);
    const auto q = random_vec(d_head, 23 + ctx);
    std::vector<int8_t> k8(ctx * kv_dim), v8(ctx * kv_dim);
    std::vector<float> k_scales(ctx), v_scales(ctx);
    quantize_rows(kf.data(), static_cast<int>(ctx), static_cast<int>(kv_dim),
                  k8.data(), k_scales.data());
    quantize_rows(vf.data(), static_cast<int>(ctx), static_cast<int>(kv_dim),
                  v8.data(), v_scales.data());
    std::vector<const int8_t*> k8_rows(ctx), v8_rows(ctx);
    std::vector<const float*> k_rows(ctx, nullptr), v_rows(ctx, nullptr);
    for (size_t j = 0; j < ctx; ++j) {
      k8_rows[j] = k8.data() + j * kv_dim;
      v8_rows[j] = v8.data() + j * kv_dim;
    }
    std::vector<float> scores(ctx), out(d_head);
    std::vector<float> k_dq(ctx * kv_dim), v_dq(ctx * kv_dim);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
    const double s = time_ms([&] {
      for (size_t j = 0; j < ctx; ++j) {
        simd::dequant_store(k8.data() + j * kv_dim, k_scales[j],
                            k_dq.data() + j * kv_dim, kv_dim);
        simd::dequant_store(v8.data() + j * kv_dim, v_scales[j],
                            v_dq.data() + j * kv_dim, kv_dim);
      }
      attn_fused_contig(q.data(), k_dq.data() + head_off,
                        v_dq.data() + head_off, kv_dim, d_head, ctx, scale,
                        0.0f, nullptr, nullptr, scores.data(), out.data());
      g_sink = out[0];
    });
    const double w = time_ms([&] {
      attn_fused_q8_gather(q.data(), k8_rows.data(), v8_rows.data(),
                           k_scales.data(), v_scales.data(), k_rows.data(),
                           v_rows.data(), head_off, d_head, ctx, scale, 0.0f,
                           nullptr, nullptr, scores.data(), out.data());
      g_sink = out[0];
    });
    record(table, "attn_q8", "ctx=" + std::to_string(ctx), s, w);
    if (ctx == 1024) beats_at_1k = w < s;
  }
  table.print(std::cout);
  return beats_at_1k;
}

// Decode-style attention over a sub-byte (Q4_0) context, the per-token
// contrast for the 4-bit format: naive retrieval — dequantize every packed
// K/V row to fp32, then the fp32 fused kernel — against
// attn_fused_q4_gather, which scores q·k on the packed nibbles (maddubs
// after a mask+shift unpack) and mixes V straight from the nibbles. Returns
// whether the int4 kernel wins at ctx=1024 (the acceptance bound: int4
// fused must beat dequantize-then-fp32 at ctx >= 1K).
bool bench_q4_attention() {
  TablePrinter table("q4 attention, one head (d_head=64, Q4_0 context)");
  table.set_header({"ctx", "dequant+fp32", "int4 fused", "speedup"});
  const size_t d_head = 64, kv_dim = 128, head_off = 64;
  const int blocks = q4_blocks(static_cast<int>(kv_dim));
  const size_t row_bytes = q4_row_bytes(static_cast<int>(kv_dim));
  std::vector<size_t> ctxs = {256, 1024};
  if (bench::full_mode()) ctxs.push_back(4096);
  bool beats_at_1k = false;
  for (size_t ctx : ctxs) {
    const auto kf = random_vec(ctx * kv_dim, 27 + ctx);
    const auto vf = random_vec(ctx * kv_dim, 29 + ctx);
    const auto q = random_vec(d_head, 31 + ctx);
    std::vector<uint8_t> k4(ctx * row_bytes), v4(ctx * row_bytes);
    std::vector<float> k_scales(ctx * blocks), v_scales(ctx * blocks);
    quantize_rows_q4(kf.data(), static_cast<int>(ctx),
                     static_cast<int>(kv_dim), k4.data(), k_scales.data());
    quantize_rows_q4(vf.data(), static_cast<int>(ctx),
                     static_cast<int>(kv_dim), v4.data(), v_scales.data());
    std::vector<const uint8_t*> k4_rows(ctx), v4_rows(ctx);
    std::vector<const float*> k4_sc(ctx), v4_sc(ctx);
    std::vector<const float*> k_rows(ctx, nullptr), v_rows(ctx, nullptr);
    for (size_t j = 0; j < ctx; ++j) {
      k4_rows[j] = k4.data() + j * row_bytes;
      v4_rows[j] = v4.data() + j * row_bytes;
      k4_sc[j] = k_scales.data() + j * blocks;
      v4_sc[j] = v_scales.data() + j * blocks;
    }
    std::vector<float> scores(ctx), out(d_head);
    std::vector<float> k_dq(ctx * kv_dim), v_dq(ctx * kv_dim);
    const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
    const double s = time_ms([&] {
      for (size_t j = 0; j < ctx; ++j) {
        dequantize_row_q4(k4.data() + j * row_bytes,
                          k_scales.data() + j * blocks,
                          static_cast<int>(kv_dim),
                          k_dq.data() + j * kv_dim);
        dequantize_row_q4(v4.data() + j * row_bytes,
                          v_scales.data() + j * blocks,
                          static_cast<int>(kv_dim),
                          v_dq.data() + j * kv_dim);
      }
      attn_fused_contig(q.data(), k_dq.data() + head_off,
                        v_dq.data() + head_off, kv_dim, d_head, ctx, scale,
                        0.0f, nullptr, nullptr, scores.data(), out.data());
      g_sink = out[0];
    });
    const double w = time_ms([&] {
      attn_fused_q4_gather(q.data(), k4_rows.data(), v4_rows.data(),
                           k4_sc.data(), v4_sc.data(), k_rows.data(),
                           v_rows.data(), head_off, d_head, ctx, scale, 0.0f,
                           nullptr, nullptr, scores.data(), out.data());
      g_sink = out[0];
    });
    record(table, "attn_q4", "ctx=" + std::to_string(ctx), s, w);
    if (ctx == 1024) beats_at_1k = w < s;
  }
  table.print(std::cout);
  return beats_at_1k;
}

void bench_ttft() {
  // End-to-end: full prefill + first-token logits on the tiny llama config.
  // This exercises every kernel the PR touched (gemm, gemm_nt via attention
  // projections, the fused attention loop, rmsnorm, elementwise).
  TablePrinter table("end-to-end TTFT, llama-tiny (d_model=192, 4 layers)");
  table.set_header({"prompt tokens", "TTFT", "tok/s (prefill)"});
  std::vector<size_t> lens = {128, 512, 1024};
  if (bench::full_mode()) lens.push_back(2048);
  const Model model = Model::random(ModelConfig::llama_tiny(512, 4096), 42);
  Rng rng(17);
  for (size_t n : lens) {
    std::vector<TokenId> tokens(n);
    for (auto& t : tokens) t = static_cast<TokenId>(rng.next_below(512));
    std::vector<int> pos(n);
    std::iota(pos.begin(), pos.end(), 0);
    const double ms = time_ms(
        [&] {
          KVCache cache = model.make_cache();
          const Tensor logits = model.forward(tokens, pos, cache);
          g_sink = logits.at(0, 0);
        },
        0.2);
    const double tok_s = 1e3 * static_cast<double>(n) / ms;
    table.add_row({std::to_string(n), TablePrinter::fmt_ms(ms),
                   TablePrinter::fmt(tok_s, 0)});
    g_ttft_json.push_back({"tokens=" + std::to_string(n), ms, tok_s});
  }
  table.print(std::cout);
}

void write_json(double gemm_nt_required_speedup, bool q8_beats_at_1k,
                bool q4_beats_at_1k) {
  std::ofstream out("BENCH_kernels.json");
  out << "{\n  \"provenance\": " << bench::provenance_json() << ",\n"
      << "  \"isa\": \"" << simd::isa_name() << "\",\n"
      << "  \"gemm_nt_64_512_512_speedup\": "
      << TablePrinter::fmt(gemm_nt_required_speedup, 2) << ",\n"
      << "  \"attn_q8_int8_beats_dequant_at_ctx1024\": "
      << (q8_beats_at_1k ? "true" : "false") << ",\n"
      << "  \"attn_q4_int4_beats_dequant_at_ctx1024\": "
      << (q4_beats_at_1k ? "true" : "false") << ",\n"
      << "  \"results\": [\n";
  for (size_t i = 0; i < g_json.size(); ++i) {
    const auto& r = g_json[i];
    out << "    {\"section\": \"" << r.section << "\", \"shape\": \""
        << r.shape << "\", \"scalar_ms\": " << r.scalar_ms
        << ", \"vector_ms\": " << r.vector_ms
        << ", \"speedup\": " << TablePrinter::fmt(r.scalar_ms / r.vector_ms, 3)
        << "}" << (i + 1 < g_json.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"ttft\": [\n";
  for (size_t i = 0; i < g_ttft_json.size(); ++i) {
    const auto& r = g_ttft_json[i];
    out << "    {\"shape\": \"" << r.shape << "\", \"ms\": " << r.ms
        << ", \"prefill_tok_s\": " << TablePrinter::fmt(r.prefill_tok_s, 0)
        << "}" << (i + 1 < g_ttft_json.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote BENCH_kernels.json\n";
}

}  // namespace

int main() {
  bench::print_banner(
      "Kernel microbenchmarks — vectorized vs seed scalar",
      std::string("SIMD ISA: ") + simd::isa_name() +
          " (PC_FULL=1 for larger shapes)");
  bench_dot();
  const double required = bench_gemm_nt();
  bench_attention();
  bench_attention_grouped();
  const bool q8_beats_at_1k = bench_q8_attention();
  const bool q4_beats_at_1k = bench_q4_attention();
  bench_ttft();
  write_json(required, q8_beats_at_1k, q4_beats_at_1k);
  std::cout << "gemm_nt (m=64,k=512,n=512) speedup: "
            << TablePrinter::fmt_times(required) << "\n";
  return 0;
}
