#include "core/session.h"

#include <numeric>

#include "common/timer.h"

namespace pc {

ChatSession::ChatSession(PromptCacheEngine& engine,
                         std::string_view prompt_pml, bool wrap_turns)
    : engine_(&engine),
      cache_(engine.model().make_cache()),
      wrap_turns_(wrap_turns) {
  const pml::PromptBinding binding = engine.bind(prompt_pml);
  (void)engine.ensure_encoded(binding);
  (void)engine.assemble_and_prefill(binding, cache_, nullptr);
  // Turns continue where serve() would start generating: past the prompt's
  // uncached stream, kickoff included.
  next_pos_ =
      collect_uncached(binding, engine.model().config().max_pos).gen_start;
}

ChatSession::TurnResult ChatSession::send(std::string_view user_text,
                                          const GenerateOptions& options) {
  WallTimer timer;
  const ChatTemplate tmpl(engine_->model().config().chat_template);

  // "user : <text>\n assistant-prefix" in the model family's format.
  const std::string turn_text =
      wrap_turns_ ? tmpl.render(ChatRole::kUser, user_text) +
                        tmpl.wrap(ChatRole::kAssistant).prefix
                  : std::string(user_text);
  const std::vector<TokenId> turn_tokens =
      engine_->tokenizer().encode(turn_text);
  PC_CHECK_MSG(!turn_tokens.empty(), "empty user turn");
  PC_CHECK_MSG(next_pos_ + static_cast<int>(turn_tokens.size()) +
                       options.max_new_tokens <
                   engine_->model().config().max_pos,
               "session position budget exhausted after "
                   << turns_ << " turns; start a new session");

  std::vector<int> pos(turn_tokens.size());
  std::iota(pos.begin(), pos.end(), next_pos_);
  const Tensor logits = engine_->model().forward(turn_tokens, pos, cache_);
  next_pos_ += static_cast<int>(turn_tokens.size());

  const int before_reply = cache_.size();
  TurnResult result;
  result.input_tokens = static_cast<int>(turn_tokens.size());
  result.tokens =
      engine_->model().generate(logits, next_pos_, cache_, options).tokens;
  // Generation forwards every emitted token except possibly the last one
  // (emitted but not yet fed back). Keep the cache complete so the next
  // turn sees the whole reply.
  const int forwarded = cache_.size() - before_reply;
  next_pos_ += forwarded;
  if (static_cast<int>(result.tokens.size()) > forwarded &&
      next_pos_ < engine_->model().config().max_pos) {
    const TokenId last = result.tokens.back();
    const int p = next_pos_;
    engine_->model().encode({&last, 1}, {&p, 1}, cache_);
    ++next_pos_;
  }

  // Close the assistant block so the following turn is well-formed.
  const std::string closing =
      wrap_turns_ ? tmpl.wrap(ChatRole::kAssistant).suffix : std::string();
  const std::vector<TokenId> closing_tokens =
      engine_->tokenizer().encode(closing);
  if (!closing_tokens.empty() &&
      next_pos_ + static_cast<int>(closing_tokens.size()) <
          engine_->model().config().max_pos) {
    std::vector<int> cpos(closing_tokens.size());
    std::iota(cpos.begin(), cpos.end(), next_pos_);
    engine_->model().encode(closing_tokens, cpos, cache_);
    next_pos_ += static_cast<int>(closing_tokens.size());
  }

  result.text = engine_->tokenizer().decode(result.tokens);
  result.latency_ms = timer.elapsed_ms();
  ++turns_;
  return result;
}

}  // namespace pc
