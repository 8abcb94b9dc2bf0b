#include "core/prefix_cache.h"

#include <numeric>

#include "common/timer.h"

namespace pc {

namespace {

int common_prefix(const std::vector<TokenId>& a,
                  const std::vector<TokenId>& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return static_cast<int>(i);
}

}  // namespace

int PrefixCacheEngine::longest_prefix(
    const std::vector<TokenId>& prompt) const {
  int best = 0;
  for (const Entry& e : entries_) {
    best = std::max(best, common_prefix(prompt, e.tokens));
  }
  return best;
}

void PrefixCacheEngine::insert(std::vector<TokenId> tokens, KVCache states) {
  const size_t bytes = states.payload_bytes();
  if (capacity_ != 0) {
    if (bytes > capacity_) return;  // never fits; don't thrash
    while (resident_bytes_ + bytes > capacity_ && !entries_.empty()) {
      resident_bytes_ -= entries_.back().states.payload_bytes();
      entries_.pop_back();
      ++stats_.evictions;
    }
  }
  resident_bytes_ += bytes;
  entries_.emplace_front(std::move(tokens), std::move(states));
}

PrefixCacheEngine::Result PrefixCacheEngine::serve(
    const std::vector<TokenId>& prompt, const GenerateOptions& options) {
  PC_CHECK_MSG(!prompt.empty(), "empty prompt");
  PC_CHECK_MSG(static_cast<int>(prompt.size()) < model_.config().max_pos,
               "prompt exceeds max_pos");
  ++stats_.requests;

  WallTimer timer;
  // Longest-prefix lookup; bump the winner's recency.
  auto best_it = entries_.end();
  int best_len = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const int len = common_prefix(prompt, it->tokens);
    if (len > best_len) {
      best_len = len;
      best_it = it;
    }
  }
  if (best_it != entries_.end()) {
    entries_.splice(entries_.begin(), entries_, best_it);
  }

  // All-but-last reuse still requires computing the final position for
  // logits, mirroring Prompt Cache's kickoff rule.
  const int reuse = std::min(best_len, static_cast<int>(prompt.size()) - 1);
  KVCache cache = model_.make_cache();
  cache.reserve(static_cast<int>(prompt.size()) + options.max_new_tokens);
  if (reuse > 0) {
    cache.append_range(entries_.front().states, 0, reuse);
  }

  const int remainder = static_cast<int>(prompt.size()) - reuse;
  std::vector<int> pos(static_cast<size_t>(remainder));
  std::iota(pos.begin(), pos.end(), reuse);
  const Tensor logits = model_.forward(
      std::span<const TokenId>(prompt.data() + reuse,
                               static_cast<size_t>(remainder)),
      pos, cache);

  Result result;
  result.reused_tokens = reuse;
  result.computed_tokens = remainder;
  result.ttft_ms = timer.elapsed_ms();

  stats_.tokens_reused += static_cast<uint64_t>(reuse);
  stats_.tokens_computed += static_cast<uint64_t>(remainder);
  if (reuse == 0) {
    ++stats_.misses;
  } else if (remainder <= 1) {
    ++stats_.full_hits;
  } else {
    ++stats_.partial_hits;
  }

  // Cache this prompt's full prefill states (copy of the prompt span only).
  KVCache snapshot = model_.make_cache();
  snapshot.append_range(cache, 0, static_cast<int>(prompt.size()));
  insert(prompt, std::move(snapshot));

  result.tokens =
      model_.generate(logits, static_cast<int>(prompt.size()), cache, options)
          .tokens;
  result.text = tokenizer_.decode(result.tokens);
  return result;
}

}  // namespace pc
