#include "expr/parser.h"

#include <algorithm>

#include "expr/lexer.h"

namespace mlfs {
namespace {

/// A parsed subtree and its nesting depth: 1 for a leaf, one more for
/// every operator, call or parenthesised group above it.
struct Node {
  ExprPtr expr;
  size_t depth = 1;
};

class Parser {
 public:
  Parser(std::string_view source, std::vector<Token> tokens)
      : source_(source), tokens_(std::move(tokens)) {}

  StatusOr<ExprPtr> Parse() {
    MLFS_ASSIGN_OR_RETURN(Node e, ParseOr(0));
    if (Peek().type != TokenType::kEnd) {
      return Error("unexpected trailing input");
    }
    return std::move(e.expr);
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Take() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument(
        "parse error at offset " + std::to_string(Peek().position) + " in '" +
        std::string(source_) + "': " + msg);
  }

  Status DepthError() const {
    return Error("expression nests deeper than " +
                 std::to_string(kMaxExprDepth) + " levels");
  }

  /// `expr` at `depth`, or the depth error past kMaxExprDepth.
  StatusOr<Node> Make(ExprPtr expr, size_t depth) const {
    if (depth > kMaxExprDepth) return DepthError();
    return Node{std::move(expr), depth};
  }

  StatusOr<Node> MakeBinary(BinaryOp op, Node lhs, Node rhs) const {
    const size_t depth = 1 + std::max(lhs.depth, rhs.depth);
    return Make(Expr::Binary(op, std::move(lhs.expr), std::move(rhs.expr)),
                depth);
  }

  // `level` counts the groups, calls and unary operators enclosing the
  // current position. Every one of them adds a level to the finished
  // tree, so descending is refused as soon as `level` alone reaches the
  // bound: the recursion below is what would overflow the stack.

  StatusOr<Node> ParseOr(size_t level) {
    MLFS_ASSIGN_OR_RETURN(Node lhs, ParseAnd(level));
    while (Peek().type == TokenType::kKeywordOr) {
      Take();
      MLFS_ASSIGN_OR_RETURN(Node rhs, ParseAnd(level));
      MLFS_ASSIGN_OR_RETURN(
          lhs, MakeBinary(BinaryOp::kOr, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  StatusOr<Node> ParseAnd(size_t level) {
    MLFS_ASSIGN_OR_RETURN(Node lhs, ParseNot(level));
    while (Peek().type == TokenType::kKeywordAnd) {
      Take();
      MLFS_ASSIGN_OR_RETURN(Node rhs, ParseNot(level));
      MLFS_ASSIGN_OR_RETURN(
          lhs, MakeBinary(BinaryOp::kAnd, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  StatusOr<Node> ParseNot(size_t level) {
    if (level >= kMaxExprDepth) return DepthError();
    if (Peek().type == TokenType::kKeywordNot) {
      Take();
      MLFS_ASSIGN_OR_RETURN(Node operand, ParseNot(level + 1));
      return Make(Expr::Unary(UnaryOp::kNot, std::move(operand.expr)),
                  operand.depth + 1);
    }
    return ParseCmp(level);
  }

  StatusOr<Node> ParseCmp(size_t level) {
    MLFS_ASSIGN_OR_RETURN(Node lhs, ParseAdd(level));
    if (Peek().type == TokenType::kOperator) {
      const std::string& op = Peek().text;
      BinaryOp bop;
      if (op == "==") {
        bop = BinaryOp::kEq;
      } else if (op == "!=") {
        bop = BinaryOp::kNe;
      } else if (op == "<") {
        bop = BinaryOp::kLt;
      } else if (op == "<=") {
        bop = BinaryOp::kLe;
      } else if (op == ">") {
        bop = BinaryOp::kGt;
      } else if (op == ">=") {
        bop = BinaryOp::kGe;
      } else {
        return lhs;
      }
      Take();
      MLFS_ASSIGN_OR_RETURN(Node rhs, ParseAdd(level));
      return MakeBinary(bop, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<Node> ParseAdd(size_t level) {
    MLFS_ASSIGN_OR_RETURN(Node lhs, ParseMul(level));
    while (Peek().type == TokenType::kOperator &&
           (Peek().text == "+" || Peek().text == "-")) {
      BinaryOp op = Take().text == "+" ? BinaryOp::kAdd : BinaryOp::kSub;
      MLFS_ASSIGN_OR_RETURN(Node rhs, ParseMul(level));
      MLFS_ASSIGN_OR_RETURN(lhs,
                            MakeBinary(op, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  StatusOr<Node> ParseMul(size_t level) {
    MLFS_ASSIGN_OR_RETURN(Node lhs, ParseUnary(level));
    while (Peek().type == TokenType::kOperator &&
           (Peek().text == "*" || Peek().text == "/" || Peek().text == "%")) {
      std::string op = Take().text;
      MLFS_ASSIGN_OR_RETURN(Node rhs, ParseUnary(level));
      BinaryOp bop = op == "*"   ? BinaryOp::kMul
                     : op == "/" ? BinaryOp::kDiv
                                 : BinaryOp::kMod;
      MLFS_ASSIGN_OR_RETURN(lhs,
                            MakeBinary(bop, std::move(lhs), std::move(rhs)));
    }
    return lhs;
  }

  StatusOr<Node> ParseUnary(size_t level) {
    if (level >= kMaxExprDepth) return DepthError();
    if (Peek().type == TokenType::kOperator && Peek().text == "-") {
      Take();
      MLFS_ASSIGN_OR_RETURN(Node operand, ParseUnary(level + 1));
      return Make(Expr::Unary(UnaryOp::kNeg, std::move(operand.expr)),
                  operand.depth + 1);
    }
    return ParsePrimary(level);
  }

  StatusOr<Node> ParsePrimary(size_t level) {
    const Token& tok = Peek();
    switch (tok.type) {
      case TokenType::kIntLiteral:
        return Node{Expr::Literal(Value::Int64(Take().int_value))};
      case TokenType::kDoubleLiteral:
        return Node{Expr::Literal(Value::Double(Take().double_value))};
      case TokenType::kStringLiteral:
        return Node{Expr::Literal(Value::String(Take().text))};
      case TokenType::kKeywordTrue:
        Take();
        return Node{Expr::Literal(Value::Bool(true))};
      case TokenType::kKeywordFalse:
        Take();
        return Node{Expr::Literal(Value::Bool(false))};
      case TokenType::kKeywordNull:
        Take();
        return Node{Expr::Literal(Value::Null())};
      case TokenType::kLParen: {
        Take();
        MLFS_ASSIGN_OR_RETURN(Node inner, ParseOr(level + 1));
        if (Peek().type != TokenType::kRParen) {
          return Error("expected ')'");
        }
        Take();
        return Make(std::move(inner.expr), inner.depth + 1);
      }
      case TokenType::kIdentifier: {
        Token ident = Take();
        if (Peek().type == TokenType::kLParen) {
          Take();
          std::vector<ExprPtr> args;
          size_t depth = 0;
          if (Peek().type != TokenType::kRParen) {
            for (;;) {
              MLFS_ASSIGN_OR_RETURN(Node arg, ParseOr(level + 1));
              depth = std::max(depth, arg.depth);
              args.push_back(std::move(arg.expr));
              if (Peek().type == TokenType::kComma) {
                Take();
                continue;
              }
              break;
            }
          }
          if (Peek().type != TokenType::kRParen) {
            return Error("expected ')' after call arguments");
          }
          Take();
          return Make(Expr::Call(ident.text, std::move(args)), depth + 1);
        }
        return Node{Expr::Column(ident.text)};
      }
      default:
        return Error("expected expression");
    }
  }

  std::string_view source_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<ExprPtr> ParseExpr(std::string_view source) {
  MLFS_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(source, std::move(tokens));
  return parser.Parse();
}

}  // namespace mlfs
