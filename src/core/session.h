// Multi-turn conversations over a cached context.
//
// A session assembles its prompt's cached modules once, then keeps the
// sequence KV cache alive across turns: each user message and assistant
// reply is appended incrementally (the classic single-prompt KV-Cache reuse
// of §2.2) on top of the inter-request module reuse of Prompt Cache. The
// standing context — documents, instructions — is borrowed (or copied,
// with EngineConfig::zero_copy off) once per session instead of once per
// turn, and a borrowing session keeps what it borrows alive until it is
// destroyed.
//
// Turns are wrapped with the model family's chat template (§3.2.3).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/engine.h"

namespace pc {

class ChatSession {
 public:
  // Binds and assembles `prompt_pml` (its schema must already be loaded in
  // the engine). The prompt's free text, if any, becomes standing context.
  // wrap_turns renders each turn through the model's chat template; pass
  // false to append raw text (models without conversation formatting).
  ChatSession(PromptCacheEngine& engine, std::string_view prompt_pml,
              bool wrap_turns = true);

  struct TurnResult {
    std::string text;
    std::vector<TokenId> tokens;
    double latency_ms = 0;
    int input_tokens = 0;  // user-turn tokens appended to the cache
  };

  // Appends one user turn and generates the assistant reply.
  TurnResult send(std::string_view user_text,
                  const GenerateOptions& options = {});

  int turns() const { return turns_; }
  int context_tokens() const { return cache_.size(); }

  // Positions left before the model's max_pos is exhausted.
  int remaining_positions() const {
    return engine_->model().config().max_pos - next_pos_;
  }

 private:
  PromptCacheEngine* engine_;
  KVCache cache_;
  bool wrap_turns_;
  int next_pos_ = 0;
  int turns_ = 0;
};

}  // namespace pc
