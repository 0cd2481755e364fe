#include "table/index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <numeric>

#include "common/numeric.h"
#include "common/string_util.h"
#include "table/columnar.h"

namespace uctr {

TableIndex::LiteralKey::LiteralKey(const Value& v) {
  null = v.is_null();
  if (null) return;
  if (auto num = v.ToNumber(); num.ok()) {
    numeric = true;
    number = num.ValueOrDie();
  }
  norm = ToLower(Trim(v.ToDisplayString()));
}

TableIndex::TableIndex(const ColumnarTable* cells)
    : cells_(cells),
      num_columns_(cells->num_columns()),
      once_(std::make_unique<std::once_flag[]>(num_columns_)),
      columns_(num_columns_) {}

const TableIndex::Column& TableIndex::column(size_t c) const {
  std::call_once(once_[c], [this, c] { BuildColumn(c); });
  return *columns_[c];
}

void TableIndex::Warm() const {
  for (size_t c = 0; c < num_columns_; ++c) column(c);
}

const std::vector<size_t>& TableIndex::all_rows() const {
  std::call_once(all_rows_once_, [this] {
    all_rows_.resize(cells_->num_rows());
    std::iota(all_rows_.begin(), all_rows_.end(), 0);
  });
  return all_rows_;
}

uint64_t TableIndex::schema_fingerprint() const {
  std::call_once(schema_fp_once_,
                 [this] { schema_fp_ = cells_->schema().Fingerprint(); });
  return schema_fp_;
}

const TableIndex::TokenInventory& TableIndex::tokens() const {
  std::call_once(tokens_once_, [this] { BuildTokens(); });
  return *tokens_;
}

void TableIndex::BuildTokens() const {
  auto inv = std::make_unique<TokenInventory>();
  const size_t rows = cells_->num_rows();
  inv->num_rows = rows;
  // Cell tokens in CSR order, then the header words, which need no ids.
  inv->cell_begin.reserve(num_columns_ * rows + 1);
  inv->cell_begin.push_back(0);
  for (size_t c = 0; c < num_columns_; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      const Value v = cells_->CellValue(r, c);
      if (!v.is_null()) {
        for (const std::string& t : WordTokens(v.ToDisplayString())) {
          inv->ids.push_back(inv->words.Intern(t, &inv->word_slots));
        }
        // NaN would break the sorted order the number lookups rely on,
        // and NearlyEqual never matches it anyway.
        if (v.is_number() && !std::isnan(v.number())) {
          inv->numbers.push_back(v.number());
        }
      }
      inv->cell_begin.push_back(static_cast<uint32_t>(inv->ids.size()));
    }
  }
  for (size_t c = 0; c < num_columns_; ++c) {
    for (const std::string& t : WordTokens(cells_->schema().column(c).name)) {
      inv->words.Intern(t, &inv->word_slots);
    }
  }
  inv->words.ShrinkToFit();
  inv->ids.shrink_to_fit();
  std::sort(inv->numbers.begin(), inv->numbers.end());
  inv->numbers.erase(std::unique(inv->numbers.begin(), inv->numbers.end()),
                     inv->numbers.end());
  inv->numbers.shrink_to_fit();
  tokens_ = std::move(inv);
}

void TableIndex::BuildColumn(size_t c) const {
  auto col = std::make_unique<Column>();
  const size_t n = cells_->num_rows();
  col->is_null.resize(n);
  col->numeric.resize(n);
  col->number.resize(n, 0.0);
  col->display_id.resize(n);  // null rows keep 0, the empty string
  std::vector<uint32_t> display_slots(std::bit_ceil(2 * n + 2), 0);
  for (size_t r = 0; r < n; ++r) {
    Value v = cells_->CellValue(r, c);
    col->is_null[r] = v.is_null() ? 1 : 0;
    if (v.is_null()) continue;
    ++col->non_null_count;
    if (auto num = v.ToNumber(); num.ok()) {
      col->numeric[r] = 1;
      col->number[r] = num.ValueOrDie();
    }
    col->display_id[r] =
        col->displays.Intern(std::move(v).ToDisplayString(), &display_slots);
  }
  // Norms are interned in ascending order, so their ids are ranks. Every
  // display gets one, numbers included: a row name may be a number.
  std::vector<std::string> norm(col->displays.size());
  std::vector<uint32_t> by_norm(norm.size());
  for (uint32_t id = 0; id < norm.size(); ++id) {
    norm[id] = ToLower(Trim(col->displays.at(id)));
    by_norm[id] = id;
  }
  std::sort(by_norm.begin(), by_norm.end(),
            [&norm](uint32_t a, uint32_t b) { return norm[a] < norm[b]; });
  col->norm_rank.resize(norm.size());
  col->norm_slots.resize(std::bit_ceil(2 * norm.size() + 2));
  for (uint32_t id : by_norm) {
    col->norm_rank[id] = col->norms.Intern(norm[id], &col->norm_slots);
  }
  col->displays.ShrinkToFit();
  col->norms.ShrinkToFit();
  // Postings by counting sort: posting_begin[k] counts rank k, then
  // ends it; filling each rank back to front leaves it at its start.
  col->posting_begin.assign(col->norms.size() + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    if (!col->is_null[r] && !col->numeric[r]) {
      ++col->posting_begin[col->rank(r)];
    }
  }
  std::partial_sum(col->posting_begin.begin(), col->posting_begin.end(),
                   col->posting_begin.begin());
  col->posting_rows.resize(col->posting_begin.back());
  for (size_t r = n; r-- > 0;) {
    if (!col->is_null[r] && !col->numeric[r]) {
      col->posting_rows[--col->posting_begin[col->rank(r)]] =
          static_cast<uint32_t>(r);
    }
  }
  col->sorted.resize(n);
  for (size_t r = 0; r < n; ++r) col->sorted[r] = r;
  const Column& built = *col;
  std::stable_sort(col->sorted.begin(), col->sorted.end(),
                   [&built](size_t a, size_t b) {
                     return CompareRows(built, a, b) < 0;
                   });
  columns_[c] = std::move(col);
}

size_t TableIndex::ApproxBytes() const {
  size_t bytes = num_columns_ * (sizeof(std::once_flag) +
                                 sizeof(std::unique_ptr<Column>));
  for (size_t c = 0; c < num_columns_; ++c) {
    const Column& col = column(c);
    bytes += sizeof(Column) + col.is_null.capacity() +
             col.numeric.capacity() +
             col.number.capacity() * sizeof(double) +
             col.sorted.capacity() * sizeof(size_t) +
             col.displays.ApproxBytes() + col.norms.ApproxBytes() +
             (col.display_id.capacity() + col.norm_rank.capacity() +
              col.norm_slots.capacity() + col.posting_begin.capacity() +
              col.posting_rows.capacity()) *
                 sizeof(uint32_t);
  }
  return bytes;
}

std::vector<size_t> TableIndex::SortedDescending(const Column& col) {
  const std::vector<size_t>& asc = col.sorted;
  std::vector<size_t> desc;
  desc.reserve(asc.size());
  size_t end = asc.size();
  while (end > 0) {
    size_t begin = end - 1;
    while (begin > 0 && CompareRows(col, asc[begin - 1], asc[begin]) == 0) {
      --begin;
    }
    desc.insert(desc.end(), asc.begin() + begin, asc.begin() + end);
    end = begin;
  }
  return desc;
}

bool TableIndex::CellEquals(const Column& col, size_t r,
                            const LiteralKey& lit) {
  if (lit.null) return false;  // caller guarantees the cell is non-null
  if (col.numeric[r] && lit.numeric) {
    return NearlyEqual(col.number[r], lit.number);
  }
  if (col.numeric[r] != lit.numeric) return false;
  return col.norm(r) == lit.norm;
}

int TableIndex::CellCompare(const Column& col, size_t r,
                            const LiteralKey& lit) {
  if (CellEquals(col, r, lit)) return 0;
  if (lit.null) return 1;  // non-null cell > null literal
  if (col.numeric[r] != lit.numeric) return col.numeric[r] ? -1 : 1;
  if (lit.numeric) return OrderNumbers(col.number[r], lit.number);
  const int cmp = col.norm(r).compare(lit.norm);
  return (cmp > 0) - (cmp < 0);
}

int TableIndex::CompareRows(const Column& col, size_t a, size_t b) {
  const bool na = col.is_null[a], nb = col.is_null[b];
  if (na || nb) return static_cast<int>(nb) - static_cast<int>(na);
  if (col.numeric[a] != col.numeric[b]) return col.numeric[a] ? -1 : 1;
  if (col.numeric[a]) return OrderNumbers(col.number[a], col.number[b]);
  const uint32_t ra = col.rank(a), rb = col.rank(b);
  return (ra > rb) - (ra < rb);
}

std::vector<size_t> TableIndex::EqualRows(const Column& col,
                                          const LiteralKey& lit,
                                          const std::vector<size_t>& view) {
  std::vector<size_t> out;
  const uint32_t k = col.FindNorm(lit.norm);
  if (k == StringPool::kNotFound) return out;
  const uint32_t* begin = col.posting_rows.data() + col.posting_begin[k];
  const uint32_t* end = col.posting_rows.data() + col.posting_begin[k + 1];
  // Views are ascending subsequences of [0, num_rows), so a full-size
  // view is every row and the postings are already the answer.
  if (view.size() == col.is_null.size()) {
    out.assign(begin, end);
  } else {
    std::set_intersection(view.begin(), view.end(), begin, end,
                          std::back_inserter(out));
  }
  return out;
}

}  // namespace uctr
