// Tests for multi-turn chat sessions: cached-context reuse across turns,
// conversation memory (facts stated by the user are retrievable later),
// and position-budget exhaustion.
#include <gtest/gtest.h>

#include "core/session.h"
#include "eval/workload.h"
#include "model/induction.h"

namespace pc {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest()
      : workload_(7),
        model_(make_induction_model({workload_.vocab().size(), 384})),
        engine_(model_, workload_.tokenizer()) {
    engine_.load_schema(R"(
      <schema name="chat">
        <module name="doc1">w00 w01 q05 a10 a11 . w02</module>
        <module name="doc2">w03 w04 q06 a12 a13 . w05</module>
      </schema>)");
  }

  GenerateOptions answer_options() const {
    GenerateOptions o;
    o.max_new_tokens = 5;
    o.stop_tokens = {workload_.stop_token()};
    return o;
  }

  static constexpr const char* kPrompt =
      R"(<prompt schema="chat"><doc1/><doc2/></prompt>)";

  AccuracyWorkload workload_;
  Model model_;
  PromptCacheEngine engine_;
};

TEST_F(SessionTest, AnswersAcrossTurnsFromCachedContext) {
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  const int base_context = session.context_tokens();
  EXPECT_GT(base_context, 0);

  const auto r1 = session.send("question: q05", answer_options());
  EXPECT_EQ(r1.text, "a10 a11");
  const auto r2 = session.send("question: q06", answer_options());
  EXPECT_EQ(r2.text, "a12 a13");
  EXPECT_EQ(session.turns(), 2);
  // The cache grew with the conversation, not with re-prefills.
  EXPECT_GT(session.context_tokens(), base_context);
  EXPECT_LT(session.context_tokens(), base_context + 64);
}

// A session assembles as its engine says: over a borrowing engine (the
// default) it borrows its modules, and emits a copying engine's tokens turn
// for turn at every format, even once the store has dropped what it
// borrowed (the session's cache holds those payloads).
TEST_F(SessionTest, BorrowingSessionMatchesCopyingSession) {
  const char* kTurns[] = {"question: q05", "question: q06", "w00 w01 q06",
                          "question: q05"};
  for (StorePrecision format :
       {StorePrecision::kFp32, StorePrecision::kQ8, StorePrecision::kQ4}) {
    SCOPED_TRACE(to_string(format));
    EngineConfig copy;
    copy.precision = format;
    copy.zero_copy = false;
    PromptCacheEngine copy_engine(model_, workload_.tokenizer(), copy);
    EngineConfig borrow;
    borrow.precision = format;
    PromptCacheEngine borrow_engine(model_, workload_.tokenizer(), borrow);
    for (PromptCacheEngine* engine : {&copy_engine, &borrow_engine}) {
      engine->load_schema(R"(
        <schema name="chat">
          <module name="doc1">w00 w01 q05 a10 a11 . w02</module>
          <module name="doc2">w03 w04 q06 a12 a13 . w05</module>
        </schema>)");
    }
    ChatSession copied(copy_engine, kPrompt);
    ChatSession borrowed(borrow_engine, kPrompt);
    EXPECT_EQ(borrowed.context_tokens(), copied.context_tokens());
    borrow_engine.store().clear();
    for (const char* turn : kTurns) {
      const auto want = copied.send(turn, answer_options());
      const auto got = borrowed.send(turn, answer_options());
      EXPECT_FALSE(want.tokens.empty());
      EXPECT_EQ(got.tokens, want.tokens) << turn;
    }
    EXPECT_EQ(borrowed.context_tokens(), copied.context_tokens());
  }
}

// Conversation memory: a fact the *user* states in one turn is retrievable
// in a later turn — it lives in the session's KV cache like everything
// else.
TEST_F(SessionTest, RemembersFactsFromEarlierTurns) {
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  (void)session.send("w06 q09 a20 a21 . w07", answer_options());
  const auto reply = session.send("question: q09", answer_options());
  EXPECT_EQ(reply.text, "a20 a21");
}

TEST_F(SessionTest, TurnsAreCheapAfterTheFirstAssembly) {
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  (void)session.send("question: q05", answer_options());  // assembly turn
  // A steady-state turn computes ~4 input tokens; the baseline re-prefills
  // the entire context every time. Count the tokens each side computes
  // (timing is bench/e2e's cached_speedup, not a unit-test assertion).
  for (int i = 0; i < 3; ++i) {
    const auto r = session.send("question: q05", answer_options());
    EXPECT_LT(r.input_tokens, 10);
    const ServeResult full = engine_.serve_baseline(
        R"(<prompt schema="chat"><doc1/><doc2/> question: q05</prompt>)",
        answer_options());
    EXPECT_LT(r.input_tokens, full.ttft.uncached_tokens);
  }
}

TEST_F(SessionTest, PositionBudgetIsEnforced) {
  // The induction model's max_pos is 384; long conversations must fail
  // loudly, not corrupt positions.
  ChatSession session(engine_, kPrompt, /*wrap_turns=*/false);
  GenerateOptions opts = answer_options();
  opts.max_new_tokens = 2;
  bool threw = false;
  try {
    for (int i = 0; i < 100; ++i) {
      (void)session.send("w08 w09 w10 w11 w12 w13 w14 w15", opts);
    }
  } catch (const ContractViolation& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("position budget"),
              std::string::npos);
  }
  EXPECT_TRUE(threw);
  EXPECT_GE(session.remaining_positions(), 0);
}

TEST_F(SessionTest, EmptyTurnRejectedWithoutTemplate) {
  ChatSession raw(engine_, kPrompt, /*wrap_turns=*/false);
  EXPECT_THROW(raw.send("", answer_options()), ContractViolation);
  // With template wrapping the role labels alone carry tokens.
  ChatSession wrapped(engine_, kPrompt, /*wrap_turns=*/true);
  const auto r = wrapped.send("", answer_options());
  EXPECT_GE(r.input_tokens, 1);
}

}  // namespace
}  // namespace pc
