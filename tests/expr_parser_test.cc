#include <gtest/gtest.h>

#include <span>
#include <string>

#include "expr/evaluator.h"
#include "expr/lexer.h"
#include "expr/parser.h"

namespace mlfs {
namespace {

TEST(LexerTest, BasicTokens) {
  auto toks = Tokenize("a + 42 * 3.5 >= 'x'").value();
  ASSERT_EQ(toks.size(), 8u);  // Incl. kEnd.
  EXPECT_EQ(toks[0].type, TokenType::kIdentifier);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "+");
  EXPECT_EQ(toks[2].type, TokenType::kIntLiteral);
  EXPECT_EQ(toks[2].int_value, 42);
  EXPECT_EQ(toks[4].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(toks[4].double_value, 3.5);
  EXPECT_EQ(toks[5].text, ">=");
  EXPECT_EQ(toks[6].type, TokenType::kStringLiteral);
  EXPECT_EQ(toks[6].text, "x");
  EXPECT_EQ(toks[7].type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto toks = Tokenize("AND or Not TRUE false NULL").value();
  EXPECT_EQ(toks[0].type, TokenType::kKeywordAnd);
  EXPECT_EQ(toks[1].type, TokenType::kKeywordOr);
  EXPECT_EQ(toks[2].type, TokenType::kKeywordNot);
  EXPECT_EQ(toks[3].type, TokenType::kKeywordTrue);
  EXPECT_EQ(toks[4].type, TokenType::kKeywordFalse);
  EXPECT_EQ(toks[5].type, TokenType::kKeywordNull);
}

TEST(LexerTest, ScientificNotation) {
  auto toks = Tokenize("1e3 2.5E-2").value();
  EXPECT_DOUBLE_EQ(toks[0].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks[1].double_value, 0.025);
}

TEST(LexerTest, StringEscapes) {
  auto toks = Tokenize(R"('a\'b\n' "c\"d")").value();
  EXPECT_EQ(toks[0].text, "a'b\n");
  EXPECT_EQ(toks[1].text, "c\"d");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a = b").ok());   // Single '='.
  EXPECT_FALSE(Tokenize("a ! b").ok());   // Bare '!'.
  EXPECT_FALSE(Tokenize("a # b").ok());   // Unknown char.
  EXPECT_FALSE(Tokenize("1e").ok());      // Bad exponent.
  EXPECT_FALSE(Tokenize("'bad\\q'").ok());  // Unknown escape.
}

TEST(ParserTest, Precedence) {
  // * binds tighter than +; comparison loosest before logic.
  auto e = ParseExpr("a + b * c").value();
  EXPECT_EQ(e->ToString(), "(a + (b * c))");

  e = ParseExpr("a * b + c").value();
  EXPECT_EQ(e->ToString(), "((a * b) + c)");

  e = ParseExpr("a + b > c - d").value();
  EXPECT_EQ(e->ToString(), "((a + b) > (c - d))");

  e = ParseExpr("a > 1 and b < 2 or c == 3").value();
  EXPECT_EQ(e->ToString(), "(((a > 1) and (b < 2)) or (c == 3))");

  e = ParseExpr("not a and b").value();
  EXPECT_EQ(e->ToString(), "((not a) and b)");
}

TEST(ParserTest, Associativity) {
  EXPECT_EQ(ParseExpr("a - b - c").value()->ToString(), "((a - b) - c)");
  EXPECT_EQ(ParseExpr("a / b / c").value()->ToString(), "((a / b) / c)");
}

TEST(ParserTest, Parentheses) {
  EXPECT_EQ(ParseExpr("(a + b) * c").value()->ToString(), "((a + b) * c)");
  EXPECT_EQ(ParseExpr("((a))").value()->ToString(), "a");
}

TEST(ParserTest, UnaryMinus) {
  EXPECT_EQ(ParseExpr("-a * b").value()->ToString(), "((-a) * b)");
  EXPECT_EQ(ParseExpr("a - -b").value()->ToString(), "(a - (-b))");
}

TEST(ParserTest, FunctionCalls) {
  auto e = ParseExpr("coalesce(rating, 4.0, avg_rating)").value();
  EXPECT_EQ(e->kind(), Expr::Kind::kCall);
  EXPECT_EQ(e->name(), "coalesce");
  EXPECT_EQ(e->args().size(), 3u);

  e = ParseExpr("f()").value();
  EXPECT_EQ(e->args().size(), 0u);

  e = ParseExpr("min(a, max(b, c))").value();
  EXPECT_EQ(e->ToString(), "min(a, max(b, c))");
}

TEST(ParserTest, Literals) {
  EXPECT_EQ(ParseExpr("true").value()->literal(), Value::Bool(true));
  EXPECT_EQ(ParseExpr("null").value()->literal(), Value::Null());
  EXPECT_EQ(ParseExpr("'hi'").value()->literal(), Value::String("hi"));
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseExpr("").ok());
  EXPECT_FALSE(ParseExpr("a +").ok());
  EXPECT_FALSE(ParseExpr("(a + b").ok());
  EXPECT_FALSE(ParseExpr("a b").ok());
  EXPECT_FALSE(ParseExpr("f(a,").ok());
  EXPECT_FALSE(ParseExpr("and a").ok());
}

std::string Repeat(std::string_view piece, size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) out += piece;
  return out;
}

// Hostile nesting is rejected with a Status instead of overflowing the
// stack, for every shape that nests: parentheses, unary operators, call
// arguments and left-deep binary chains (built in a loop, not by
// recursion, so only a depth count catches them).
TEST(ParserTest, RejectsNestingPastTheBound) {
  const std::string too_deep[] = {
      Repeat("(", 2000) + "1" + Repeat(")", 2000),
      Repeat("NOT ", 20000) + "true",
      Repeat("-", 20000) + "1",
      Repeat("abs(", 2000) + "x" + Repeat(")", 2000),
      "x" + Repeat("+1", 20000),
      "p" + Repeat(" and p", 20000),
      // One level past the bound in each shape.
      Repeat("(", kMaxExprDepth) + "1" + Repeat(")", kMaxExprDepth),
      Repeat("NOT ", kMaxExprDepth) + "true",
      Repeat("abs(", kMaxExprDepth) + "x" + Repeat(")", kMaxExprDepth),
      "x" + Repeat("+1", kMaxExprDepth),
  };
  for (const std::string& src : too_deep) {
    auto e = ParseExpr(src);
    ASSERT_FALSE(e.ok()) << src.substr(0, 40);
    EXPECT_TRUE(e.status().IsInvalidArgument()) << e.status();
  }
  auto schema = Schema::Create({{"x", FeatureType::kInt64, true}}).value();
  auto compiled = CompiledExpr::Compile("x" + Repeat("+1", 20000), schema);
  ASSERT_FALSE(compiled.ok());
  EXPECT_TRUE(compiled.status().IsInvalidArgument()) << compiled.status();
}

// Exactly at the bound every shape still parses, compiles and evaluates,
// row-at-a-time and as a batch.
TEST(ParserTest, AcceptsNestingAtTheBound) {
  const size_t n = kMaxExprDepth - 1;  // Levels above the leaf.
  auto schema = Schema::Create({{"x", FeatureType::kInt64, true},
                                {"p", FeatureType::kBool, true}})
                    .value();
  const struct {
    std::string src;
    Value want;
  } cases[] = {
      {Repeat("(", n) + "x" + Repeat(")", n), Value::Int64(5)},
      {Repeat("NOT ", n) + "p", Value::Bool(false)},  // n is odd.
      {Repeat("- ", n) + "x", Value::Int64(-5)},
      {Repeat("abs(", n) + "x" + Repeat(")", n), Value::Int64(5)},
      {"x" + Repeat("+1", n), Value::Int64(5 + static_cast<int64_t>(n))},
  };
  Row row = Row::Create(schema, {Value::Int64(5), Value::Bool(true)}).value();
  for (const auto& c : cases) {
    auto compiled = CompiledExpr::Compile(c.src, schema);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    auto value = compiled->Eval(row);
    ASSERT_TRUE(value.ok()) << value.status();
    EXPECT_EQ(*value, c.want) << c.src.substr(0, 40);
    ExprScratch scratch;
    RowBatchSource src(schema, std::span<const Row>(&row, 1));
    const ColumnVector* out = nullptr;
    ASSERT_TRUE(compiled->EvalBatch(src, &scratch, &out).ok());
    EXPECT_EQ(out->GetValue(0), c.want) << c.src.substr(0, 40);
  }
}

TEST(ParserTest, ReferencedColumns) {
  auto e = ParseExpr("a + b * coalesce(a, c) - 4").value();
  EXPECT_EQ(e->ReferencedColumns(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* cases[] = {
      "((a + b) * c)", "coalesce(x, 1, 2)", "((not p) or (q and r))",
      "(trips_7d / (trips_30d + 1))",
  };
  for (const char* src : cases) {
    auto e1 = ParseExpr(src).value();
    auto e2 = ParseExpr(e1->ToString()).value();
    EXPECT_EQ(e1->ToString(), e2->ToString()) << src;
  }
}

}  // namespace
}  // namespace mlfs
