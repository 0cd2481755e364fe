#include "sql/ast.h"

#include <cctype>

#include "common/string_util.h"

namespace uctr::sql {

namespace {

bool NeedsBrackets(const std::string& name) {
  if (name.empty()) return true;
  // A leading digit would lex as a number, and keyword collisions ("count")
  // would lex as keywords; bracket those too.
  if (std::isdigit(static_cast<unsigned char>(name[0]))) return true;
  for (const char* kw : {"select", "from", "where", "and", "or", "order",
                         "by", "asc", "desc", "limit", "count", "sum", "avg",
                         "min", "max", "distinct"}) {
    if (EqualsIgnoreCase(name, kw)) return true;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return true;
    }
  }
  return false;
}

std::string QuoteIdent(const std::string& name) {
  if (NeedsBrackets(name)) return "[" + name + "]";
  return name;
}

std::string QuoteLiteral(const Value& v) {
  if (v.is_number() || v.is_bool()) return v.ToDisplayString();
  return "'" + v.ToDisplayString() + "'";
}

const char* AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kNone:
      return "";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "";
}

const char* CmpOpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

}  // namespace

std::string SelectStatement::ToString() const {
  std::string out = "SELECT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    const SelectItem& item = items[i];
    if (item.agg != AggFunc::kNone) {
      out += AggFuncToString(item.agg);
      out += "(";
      if (item.distinct) out += "DISTINCT ";
      out += item.star ? "*" : QuoteIdent(item.column);
      out += ")";
    } else if (item.arith != ArithOp::kNone) {
      out += QuoteIdent(item.column);
      out += item.arith == ArithOp::kAdd ? " + " : " - ";
      out += QuoteIdent(item.rhs_column);
    } else {
      out += QuoteIdent(item.column);
    }
  }
  out += " FROM w";
  for (size_t i = 0; i < where.size(); ++i) {
    out += (i == 0) ? " WHERE " : " AND ";
    out += QuoteIdent(where[i].column);
    out += " ";
    out += CmpOpToString(where[i].op);
    out += " ";
    out += QuoteLiteral(where[i].literal);
  }
  if (order_by) {
    out += " ORDER BY " + QuoteIdent(order_by->column);
    out += order_by->descending ? " DESC" : " ASC";
  }
  if (limit) {
    out += " LIMIT " + std::to_string(*limit);
  }
  return out;
}

}  // namespace uctr::sql
