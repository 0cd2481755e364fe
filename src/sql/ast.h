#ifndef UCTR_SQL_AST_H_
#define UCTR_SQL_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "table/value.h"

namespace uctr::sql {

/// \brief Aggregate applied to a select item. kNone selects raw values.
enum class AggFunc {
  kNone = 0,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
};

/// \brief Binary arithmetic inside a select item (the paper's sum(+) and
/// diff(-) reasoning types): `col_a + col_b` / `col_a - col_b`.
enum class ArithOp {
  kNone = 0,
  kAdd,
  kSub,
};

/// \brief One projection: `col`, `AGG(col)`, `AGG(*)`, or `col (+|-) col`.
struct SelectItem {
  AggFunc agg = AggFunc::kNone;
  bool star = false;        // COUNT(*)
  bool distinct = false;    // COUNT(DISTINCT col)
  std::string column;       // left column (empty when star)
  ArithOp arith = ArithOp::kNone;
  std::string rhs_column;   // right column when arith != kNone
};

/// \brief Comparison operator in a WHERE condition.
enum class CmpOp {
  kEq,
  kNe,
  kLt,
  kGt,
  kLe,
  kGe,
};

/// \brief One conjunct: `column op literal`.
struct Condition {
  std::string column;
  CmpOp op = CmpOp::kEq;
  Value literal;
};

struct OrderBy {
  std::string column;
  bool descending = false;
};

/// \brief Parsed `SELECT ... FROM w [WHERE ...] [ORDER BY ...] [LIMIT n]`.
///
/// This is exactly the SQUALL template subset the paper samples: queries,
/// not updates; a single table `w`; conjunctive WHERE.
struct SelectStatement {
  std::vector<SelectItem> items;
  std::vector<Condition> where;
  std::optional<OrderBy> order_by;
  std::optional<int64_t> limit;

  /// \brief Re-renders the statement as canonical SQL text.
  std::string ToString() const;
};

}  // namespace uctr::sql

#endif  // UCTR_SQL_AST_H_
