#include "sql/parser.h"

#include <cstdint>
#include <cstdlib>
#include <set>

#include "common/strings.h"
#include "sql/lexer.h"
#include "types/date.h"

namespace qprog {
namespace sql {

namespace {

const std::set<std::string>& ReservedWords() {
  static const std::set<std::string>* words = new std::set<std::string>{
      "select", "from",  "where", "group", "by",    "having", "order",
      "limit",  "join",  "inner", "on",    "and",   "or",     "not",
      "like",   "in",    "between", "is",  "null",  "as",     "asc",
      "desc",   "date",  "distinct"};
  return *words;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<SelectStmt> ParseSelect() {
    QPROG_RETURN_IF_ERROR(Expect("select"));
    SelectStmt stmt;

    // Select list.
    if (Cur().Is("*")) {
      Advance();
      stmt.items.push_back(SelectItem{nullptr, "*"});
    } else {
      for (;;) {
        SelectItem item;
        QPROG_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Cur().Is("as")) {
          Advance();
          if (!Cur().Is(TokenType::kIdentifier)) {
            return Error("expected alias after AS");
          }
          item.alias = Cur().text;
          Advance();
        } else if (Cur().Is(TokenType::kIdentifier) && !IsReserved(Cur())) {
          item.alias = Cur().text;
          Advance();
        }
        stmt.items.push_back(std::move(item));
        if (!Cur().Is(",")) break;
        Advance();
      }
    }

    QPROG_RETURN_IF_ERROR(Expect("from"));
    QPROG_ASSIGN_OR_RETURN(TableRef first, ParseTableRef());
    stmt.from.push_back(std::move(first));
    for (;;) {
      if (Cur().Is(",")) {
        Advance();
        QPROG_ASSIGN_OR_RETURN(TableRef t, ParseTableRef());
        stmt.from.push_back(std::move(t));
        continue;
      }
      if (Cur().Is("inner") || Cur().Is("join")) {
        if (Cur().Is("inner")) Advance();
        QPROG_RETURN_IF_ERROR(Expect("join"));
        JoinClause join;
        QPROG_ASSIGN_OR_RETURN(join.table, ParseTableRef());
        QPROG_RETURN_IF_ERROR(Expect("on"));
        QPROG_ASSIGN_OR_RETURN(join.on, ParseExpr());
        stmt.joins.push_back(std::move(join));
        continue;
      }
      break;
    }

    if (Cur().Is("where")) {
      Advance();
      QPROG_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (Cur().Is("group")) {
      Advance();
      QPROG_RETURN_IF_ERROR(Expect("by"));
      for (;;) {
        QPROG_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
        if (!Cur().Is(",")) break;
        Advance();
      }
    }
    if (Cur().Is("having")) {
      Advance();
      QPROG_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (Cur().Is("order")) {
      Advance();
      QPROG_RETURN_IF_ERROR(Expect("by"));
      for (;;) {
        OrderItem item;
        QPROG_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Cur().Is("asc")) {
          Advance();
        } else if (Cur().Is("desc")) {
          item.descending = true;
          Advance();
        }
        stmt.order_by.push_back(std::move(item));
        if (!Cur().Is(",")) break;
        Advance();
      }
    }
    if (Cur().Is("limit")) {
      Advance();
      if (!Cur().Is(TokenType::kInteger)) {
        return Error("expected integer after LIMIT");
      }
      stmt.limit = static_cast<uint64_t>(std::strtoull(
          Cur().text.c_str(), nullptr, 10));
      Advance();
    }
    if (Cur().Is(";")) Advance();
    if (!Cur().Is(TokenType::kEnd)) {
      return Error(StringPrintf("unexpected trailing input '%s'",
                                Cur().text.c_str()));
    }
    return stmt;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t off = 1) const {
    size_t i = pos_ + off;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  static bool IsReserved(const Token& tok) {
    return ReservedWords().count(tok.text) > 0;
  }

  Status Error(const std::string& message) const {
    return InvalidArgument(StringPrintf("parse error at position %zu: %s",
                                        Cur().position, message.c_str()));
  }

  Status Expect(const char* word) {
    if (!Cur().Is(word)) {
      return Error(StringPrintf("expected '%s', found '%s'", word,
                                Cur().type == TokenType::kEnd
                                    ? "<end>"
                                    : Cur().text.c_str()));
    }
    Advance();
    return OkStatus();
  }

  StatusOr<TableRef> ParseTableRef() {
    if (!Cur().Is(TokenType::kIdentifier) || IsReserved(Cur())) {
      return Error("expected table name");
    }
    TableRef ref;
    ref.table = Cur().text;
    Advance();
    if (Cur().Is(TokenType::kIdentifier) && !IsReserved(Cur())) {
      ref.alias = Cur().text;
      Advance();
    } else {
      ref.alias = ref.table;
    }
    return ref;
  }

  // ---- expressions, precedence climbing --------------------------------
  StatusOr<SqlExprPtr> ParseExpr() { return ParseOr(); }

  StatusOr<SqlExprPtr> ParseOr() {
    QPROG_ASSIGN_OR_RETURN(SqlExprPtr left, ParseAnd());
    while (Cur().Is("or")) {
      Advance();
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr right, ParseAnd());
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kOr;
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  StatusOr<SqlExprPtr> ParseAnd() {
    QPROG_ASSIGN_OR_RETURN(SqlExprPtr left, ParseNot());
    while (Cur().Is("and")) {
      Advance();
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr right, ParseNot());
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kAnd;
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  StatusOr<SqlExprPtr> ParseNot() {
    if (Cur().Is("not")) {
      Advance();
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr child, ParseNot());
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kNot;
      node->children.push_back(std::move(child));
      return node;
    }
    return ParsePredicate();
  }

  StatusOr<SqlExprPtr> ParsePredicate() {
    QPROG_ASSIGN_OR_RETURN(SqlExprPtr left, ParseAdditive());

    bool negated = false;
    if (Cur().Is("not") &&
        (Peek().Is("like") || Peek().Is("in") || Peek().Is("between"))) {
      negated = true;
      Advance();
    }

    if (Cur().Is("like")) {
      Advance();
      if (!Cur().Is(TokenType::kString)) {
        return Error("expected string pattern after LIKE");
      }
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kLike;
      node->pattern = Cur().text;
      node->negated = negated;
      node->children.push_back(std::move(left));
      Advance();
      return node;
    }
    if (Cur().Is("in")) {
      Advance();
      QPROG_RETURN_IF_ERROR(Expect("("));
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kInList;
      node->negated = negated;
      node->children.push_back(std::move(left));
      for (;;) {
        QPROG_ASSIGN_OR_RETURN(Value v, ParseLiteralValue(node.get()));
        node->in_list.push_back(v);
        if (!Cur().Is(",")) break;
        Advance();
      }
      QPROG_RETURN_IF_ERROR(Expect(")"));
      return node;
    }
    if (Cur().Is("between")) {
      Advance();
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kBetween;
      node->negated = negated;
      node->children.push_back(std::move(left));
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr lo, ParseAdditive());
      QPROG_RETURN_IF_ERROR(Expect("and"));
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr hi, ParseAdditive());
      node->children.push_back(std::move(lo));
      node->children.push_back(std::move(hi));
      return node;
    }
    if (Cur().Is("is")) {
      Advance();
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kIsNull;
      if (Cur().Is("not")) {
        node->negated = true;
        Advance();
      }
      QPROG_RETURN_IF_ERROR(Expect("null"));
      node->children.push_back(std::move(left));
      return node;
    }
    if (negated) return Error("expected LIKE, IN or BETWEEN after NOT");

    if (Cur().Is("=") || Cur().Is("<>") || Cur().Is("<") || Cur().Is("<=") ||
        Cur().Is(">") || Cur().Is(">=")) {
      std::string op = Cur().text;
      Advance();
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr right, ParseAdditive());
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kCompare;
      node->op = std::move(op);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      return node;
    }
    return left;
  }

  StatusOr<SqlExprPtr> ParseAdditive() {
    QPROG_ASSIGN_OR_RETURN(SqlExprPtr left, ParseMultiplicative());
    while (Cur().Is("+") || Cur().Is("-")) {
      std::string op = Cur().text;
      Advance();
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr right, ParseMultiplicative());
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kArith;
      node->op = std::move(op);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  StatusOr<SqlExprPtr> ParseMultiplicative() {
    QPROG_ASSIGN_OR_RETURN(SqlExprPtr left, ParsePrimary());
    while (Cur().Is("*") || Cur().Is("/")) {
      std::string op = Cur().text;
      Advance();
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr right, ParsePrimary());
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kArith;
      node->op = std::move(op);
      node->children.push_back(std::move(left));
      node->children.push_back(std::move(right));
      left = std::move(node);
    }
    return left;
  }

  /// A VARCHAR literal's bytes are copied into `owner`.
  StatusOr<Value> ParseLiteralValue(SqlExpr* owner) {
    if (Cur().Is(TokenType::kInteger)) {
      Value v = Value::Int64(std::strtoll(Cur().text.c_str(), nullptr, 10));
      Advance();
      return v;
    }
    if (Cur().Is(TokenType::kFloat)) {
      Value v = Value::Double(std::strtod(Cur().text.c_str(), nullptr));
      Advance();
      return v;
    }
    if (Cur().Is(TokenType::kString)) {
      Value v = Value::String(owner->bytes.Copy(Cur().text));
      Advance();
      return v;
    }
    if (Cur().Is("date") && Peek().Is(TokenType::kString)) {
      Advance();
      QPROG_ASSIGN_OR_RETURN(int32_t days, ParseDate(Cur().text));
      Advance();
      return Value::Date(days);
    }
    if (Cur().Is("null")) {
      Advance();
      return Value::Null();
    }
    return Error("expected literal");
  }

  StatusOr<SqlExprPtr> ParsePrimary() {
    // Unary minus on numeric literals.
    if (Cur().Is("-") &&
        (Peek().Is(TokenType::kInteger) || Peek().Is(TokenType::kFloat))) {
      Advance();
      auto node = std::make_unique<SqlExpr>();
      QPROG_ASSIGN_OR_RETURN(Value v, ParseLiteralValue(node.get()));
      node->kind = SqlExprKind::kLiteral;
      node->literal = v.type() == TypeId::kInt64
                          ? Value::Int64(-v.int64_value())
                          : Value::Double(-v.double_value());
      return node;
    }
    if (Cur().Is("(")) {
      Advance();
      QPROG_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseExpr());
      QPROG_RETURN_IF_ERROR(Expect(")"));
      return inner;
    }
    if (Cur().Is(TokenType::kInteger) || Cur().Is(TokenType::kFloat) ||
        Cur().Is(TokenType::kString) || Cur().Is("null") ||
        (Cur().Is("date") && Peek().Is(TokenType::kString))) {
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kLiteral;
      QPROG_ASSIGN_OR_RETURN(node->literal, ParseLiteralValue(node.get()));
      return node;
    }
    if (Cur().Is(TokenType::kIdentifier)) {
      std::string name = Cur().text;
      // Aggregate function call?
      if (Peek().Is("(") &&
          (name == "count" || name == "sum" || name == "avg" ||
           name == "min" || name == "max")) {
        Advance();  // name
        Advance();  // (
        auto node = std::make_unique<SqlExpr>();
        node->kind = SqlExprKind::kFunc;
        node->func_name = name;
        if (Cur().Is("*")) {
          node->star = true;
          Advance();
        } else {
          if (Cur().Is("distinct")) {
            node->distinct = true;
            Advance();
          }
          QPROG_ASSIGN_OR_RETURN(SqlExprPtr arg, ParseExpr());
          node->children.push_back(std::move(arg));
        }
        QPROG_RETURN_IF_ERROR(Expect(")"));
        return node;
      }
      if (Peek().Is("(") && name == "substring") {
        Advance();  // name
        Advance();  // (
        auto node = std::make_unique<SqlExpr>();
        node->kind = SqlExprKind::kSubstring;
        QPROG_ASSIGN_OR_RETURN(SqlExprPtr arg, ParseExpr());
        node->children.push_back(std::move(arg));
        for (int* bound : {&node->start, &node->length}) {
          QPROG_RETURN_IF_ERROR(Expect(","));
          long long v = Cur().Is(TokenType::kInteger)
                            ? std::strtoll(Cur().text.c_str(), nullptr, 10)
                            : -1;
          if (v < 0 || v > INT32_MAX) {
            return Error("substring expects integer start and length");
          }
          *bound = static_cast<int>(v);
          Advance();
        }
        QPROG_RETURN_IF_ERROR(Expect(")"));
        return node;
      }
      if (IsReserved(Cur())) {
        return Error(StringPrintf("unexpected keyword '%s'", name.c_str()));
      }
      auto node = std::make_unique<SqlExpr>();
      node->kind = SqlExprKind::kColumn;
      Advance();
      if (Cur().Is(".") && Peek().Is(TokenType::kIdentifier)) {
        node->table = name;
        Advance();
        node->column = Cur().text;
        Advance();
      } else {
        node->column = name;
      }
      return node;
    }
    return Error(StringPrintf("unexpected token '%s'",
                              Cur().type == TokenType::kEnd
                                  ? "<end>"
                                  : Cur().text.c_str()));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<SelectStmt> Parse(const std::string& input) {
  QPROG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.ParseSelect();
}

}  // namespace sql
}  // namespace qprog
