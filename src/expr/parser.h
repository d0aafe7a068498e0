#ifndef MLFS_EXPR_PARSER_H_
#define MLFS_EXPR_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "expr/ast.h"

namespace mlfs {

/// Deepest expression ParseExpr accepts. A leaf is one level, and every
/// operator, function call and parenthesised group adds one. Type
/// inference, lowering, evaluation and the AST destructor all recurse over
/// the tree, so unbounded nesting in hostile text would overflow the stack.
inline constexpr size_t kMaxExprDepth = 256;

/// Parses a feature-definition expression into an AST. Text nesting deeper
/// than kMaxExprDepth is rejected with InvalidArgument.
///
/// Grammar (precedence climbing, loosest first):
///   or_expr   := and_expr ( "or" and_expr )*
///   and_expr  := not_expr ( "and" not_expr )*
///   not_expr  := "not" not_expr | cmp_expr
///   cmp_expr  := add_expr ( ("=="|"!="|"<"|"<="|">"|">=") add_expr )?
///   add_expr  := mul_expr ( ("+"|"-") mul_expr )*
///   mul_expr  := unary ( ("*"|"/"|"%") unary )*
///   unary     := "-" unary | primary
///   primary   := literal | identifier | identifier "(" args ")" |
///                "(" or_expr ")"
///
/// Examples: "trips_7d / (trips_30d + 1)",
///           "coalesce(rating, 4.0) >= 4.5 and not is_closed".
StatusOr<ExprPtr> ParseExpr(std::string_view source);

}  // namespace mlfs

#endif  // MLFS_EXPR_PARSER_H_
