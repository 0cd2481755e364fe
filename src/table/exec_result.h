#ifndef UCTR_TABLE_EXEC_RESULT_H_
#define UCTR_TABLE_EXEC_RESULT_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "table/value.h"

namespace uctr {

/// \brief Output of executing any program on a table.
///
/// `values` is the answer (one Value for scalar programs, several for
/// multi-row SELECTs). `evidence_rows` are the paper's "highlighted cells"
/// at row granularity: the rows that actually participated in the result,
/// consumed by the Table-To-Text splitting operator.
struct ExecResult {
  std::vector<Value> values;
  std::vector<size_t> evidence_rows;

  bool empty() const { return values.empty(); }

  /// \brief Single scalar view (first value); Null when empty.
  Value scalar() const { return values.empty() ? Value::Null() : values[0]; }

  /// \brief Canonical display: values joined by ", ".
  std::string ToDisplayString() const {
    std::string out;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += values[i].ToDisplayString();
    }
    return out;
  }
};

/// \brief The distinct rows an execution read, one bit per table row: the
/// evidence accumulator of the VM and the arithmetic walker. The bits are
/// allocated on the first mark, so a program that marks nothing allocates
/// nothing. Every row marked must be below `num_rows`.
class RowMarks {
 public:
  explicit RowMarks(size_t num_rows) : num_rows_(num_rows) {}

  void Mark(size_t row) {
    Allocate();
    words_[row / 64] |= uint64_t{1} << (row % 64);
  }
  void Mark(const std::vector<size_t>& rows) {
    if (rows.empty()) return;
    Allocate();
    for (size_t r : rows) words_[r / 64] |= uint64_t{1} << (r % 64);
  }

  /// \brief The marked rows, ascending, each once.
  std::vector<size_t> Rows() const {
    size_t count = 0;
    for (uint64_t w : words_) count += static_cast<size_t>(std::popcount(w));
    std::vector<size_t> rows;
    rows.reserve(count);
    for (size_t i = 0; i < words_.size(); ++i) {
      for (uint64_t w = words_[i]; w != 0; w &= w - 1) {
        rows.push_back(i * 64 + static_cast<size_t>(std::countr_zero(w)));
      }
    }
    return rows;
  }

 private:
  void Allocate() {
    if (words_.empty()) words_.resize((num_rows_ + 63) / 64);
  }

  size_t num_rows_;
  std::vector<uint64_t> words_;
};

}  // namespace uctr

#endif  // UCTR_TABLE_EXEC_RESULT_H_
