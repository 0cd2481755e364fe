#include "table/columnar.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>

#include "common/hash.h"
#include "common/string_util.h"
#include "table/table.h"

namespace uctr {

namespace {

/// int64 can hold any integral double in [-2^63, 2^63): both bounds are
/// exactly representable, the upper one exclusively (casting 2^63 is UB).
/// -0.0 is integral but not an int64: it stays a double to keep its sign.
constexpr double kInt64Lo = -9223372036854775808.0;  // -2^63
constexpr double kInt64Hi = 9223372036854775808.0;   // 2^63

bool FitsInt64(double v) {
  return std::nearbyint(v) == v && v >= kInt64Lo && v < kInt64Hi &&
         !(v == 0.0 && std::signbit(v));
}

void SetBit(std::vector<uint8_t>* bits, size_t r) {
  (*bits)[r / 8] |= static_cast<uint8_t>(1u << (r % 8));
}

}  // namespace

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kText:
      return "text";
    case ColumnType::kNumber:
      return "number";
    case ColumnType::kBool:
      return "bool";
  }
  return "unknown";
}

Result<size_t> Schema::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (EqualsIgnoreCase(columns_[i].name, name)) return i;
  }
  // Fallback: unique substring match, tolerating lossy NL round-trips.
  size_t found = columns_.size();
  int hits = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (ContainsIgnoreCase(columns_[i].name, name) ||
        ContainsIgnoreCase(name, columns_[i].name)) {
      found = i;
      ++hits;
    }
  }
  if (hits == 1) return found;
  return Status::NotFound("no column named '" + std::string(name) + "'");
}

bool Schema::HasColumn(std::string_view name) const {
  return ColumnIndex(name).ok();
}

uint64_t Schema::Fingerprint() const {
  // FNV-1a streamed over "name \x1f type \x1e" per column: the identity
  // the compiled-plan cache keys on.
  uint64_t h = hash::kFnv64TruncatedBasis;
  for (const ColumnSpec& col : columns_) {
    h = hash::Fnv1a64(col.name, h);
    const char tail[3] = {
        '\x1f', static_cast<char>('0' + static_cast<int>(col.type)), '\x1e'};
    h = hash::Fnv1a64({tail, 3}, h);
  }
  return h;
}

uint32_t StringPool::Add(std::string_view text) {
  if (text.size() > UINT32_MAX - chars_.size()) {
    std::fprintf(stderr, "StringPool: over 4 GiB of text\n");
    std::abort();
  }
  chars_.insert(chars_.end(), text.begin(), text.end());
  offsets_.push_back(static_cast<uint32_t>(chars_.size()));
  return size() - 1;
}

uint32_t StringPool::Intern(std::string_view text,
                            std::vector<uint32_t>* slots) {
  if (text.empty()) return 0;
  if (slots->size() < 2 * size() + 2) {  // keep the table under half full
    std::vector<uint32_t> old = std::exchange(
        *slots, std::vector<uint32_t>(std::bit_ceil(4 * size() + 4), 0));
    for (uint32_t id : old) {
      if (id != 0) (*slots)[Probe(at(id), *slots)] = id;
    }
  }
  uint32_t& slot = (*slots)[Probe(text, *slots)];
  return slot != 0 ? slot : (slot = Add(text));
}

uint32_t StringPool::Find(std::string_view text,
                          const std::vector<uint32_t>& slots) const {
  if (text.empty()) return 0;
  if (slots.empty()) return kNotFound;
  const uint32_t id = slots[Probe(text, slots)];
  return id != 0 ? id : kNotFound;
}

size_t StringPool::Probe(std::string_view text,
                         const std::vector<uint32_t>& slots) const {
  const size_t mask = slots.size() - 1;
  size_t i = std::hash<std::string_view>()(text) & mask;
  while (slots[i] != 0 && at(slots[i]) != text) i = (i + 1) & mask;
  return i;
}

ColumnarTable ColumnarTable::Build(std::string name, Schema schema,
                                   size_t num_rows,
                                   const std::vector<Value>& cells) {
  ColumnarTable out;
  out.name_ = std::move(name);
  out.schema_ = std::move(schema);
  out.num_rows_ = num_rows;
  const size_t rows = num_rows;
  const size_t width = out.schema_.num_columns();
  const size_t bitmap_bytes = (rows + 7) / 8;
  out.columns_.reserve(width);

  // Interns through a table of pool ids that goes with the build: the
  // table keeps one copy of each string.
  std::vector<uint32_t> slots(std::bit_ceil(2 * cells.size() + 2), 0);
  auto intern = [&](std::string_view text) {
    return out.pool_.Intern(text, &slots);
  };

  for (size_t c = 0; c < width; ++c) {
    auto cell = [&](size_t r) -> const Value& { return cells[r * width + c]; };
    TypedColumn col;
    col.null_bitmap.assign(bitmap_bytes, 0);

    // Pass 1: the per-column type decision. Counts what value types the
    // column actually holds, whether every number is integral, and
    // whether any number kept a surface text ("$1,234.5").
    size_t strings = 0, numbers = 0, bools = 0, non_null = 0;
    bool all_int = true, any_number_text = false;
    for (size_t r = 0; r < rows; ++r) {
      const Value& v = cell(r);
      if (v.is_null()) continue;
      ++non_null;
      if (v.is_string()) {
        ++strings;
      } else if (v.is_number()) {
        ++numbers;
        if (!FitsInt64(v.number())) all_int = false;
        if (!v.text().empty()) any_number_text = true;
      } else {
        ++bools;
      }
    }
    if (non_null == numbers && numbers > 0) {
      col.encoding =
          all_int ? ColumnEncoding::kInt64 : ColumnEncoding::kDouble;
    } else if (non_null == bools && bools > 0) {
      col.encoding = ColumnEncoding::kBool;
    } else if (non_null == strings) {
      // Includes the all-null column: nothing contradicts "string".
      col.encoding = ColumnEncoding::kString;
    } else {
      col.encoding = ColumnEncoding::kMixed;
    }

    // Pass 2: pack values into the typed arrays.
    switch (col.encoding) {
      case ColumnEncoding::kInt64:
        col.ints.assign(rows, 0);
        if (any_number_text) col.text_ids.assign(rows, 0);
        for (size_t r = 0; r < rows; ++r) {
          const Value& v = cell(r);
          if (v.is_null()) {
            SetBit(&col.null_bitmap, r);
            continue;
          }
          col.ints[r] = static_cast<int64_t>(v.number());
          if (any_number_text) col.text_ids[r] = intern(v.text());
        }
        break;
      case ColumnEncoding::kDouble:
        col.doubles.assign(rows, 0.0);
        if (any_number_text) col.text_ids.assign(rows, 0);
        for (size_t r = 0; r < rows; ++r) {
          const Value& v = cell(r);
          if (v.is_null()) {
            SetBit(&col.null_bitmap, r);
            continue;
          }
          col.doubles[r] = v.number();
          if (any_number_text) col.text_ids[r] = intern(v.text());
        }
        break;
      case ColumnEncoding::kString:
        col.text_ids.assign(rows, 0);
        for (size_t r = 0; r < rows; ++r) {
          const Value& v = cell(r);
          if (v.is_null()) {
            SetBit(&col.null_bitmap, r);
            continue;
          }
          col.text_ids[r] = intern(v.text());
        }
        break;
      case ColumnEncoding::kBool:
        col.bool_bits.assign(bitmap_bytes, 0);
        for (size_t r = 0; r < rows; ++r) {
          const Value& v = cell(r);
          if (v.is_null()) {
            SetBit(&col.null_bitmap, r);
            continue;
          }
          if (v.boolean()) SetBit(&col.bool_bits, r);
        }
        break;
      case ColumnEncoding::kMixed:
        col.cell_types.assign(rows, static_cast<uint8_t>(ValueType::kNull));
        col.doubles.assign(rows, 0.0);
        col.text_ids.assign(rows, 0);
        for (size_t r = 0; r < rows; ++r) {
          const Value& v = cell(r);
          col.cell_types[r] = static_cast<uint8_t>(v.type());
          if (v.is_null()) {
            SetBit(&col.null_bitmap, r);
            continue;
          }
          if (v.is_string()) {
            col.text_ids[r] = intern(v.text());
          } else {
            col.doubles[r] = v.number();
            if (v.is_number() && !v.text().empty()) {
              col.text_ids[r] = intern(v.text());
            }
          }
        }
        break;
    }
    out.columns_.push_back(std::move(col));
  }
  out.pool_.ShrinkToFit();
  return out;
}

const ColumnarTable& ColumnarTable::FromTable(const Table& table) {
  return table.columns();
}

Value ColumnarTable::CellValue(size_t r, size_t c) const {
  const TypedColumn& col = columns_[c];
  if (col.is_null(r)) return Value::Null();
  uint32_t text_id = col.text_ids.empty() ? 0 : col.text_ids[r];
  auto number = [&](double v) {
    return text_id == 0
               ? Value::Number(v)
               : Value::NumberWithText(v, std::string(pool_.at(text_id)));
  };
  switch (col.encoding) {
    case ColumnEncoding::kInt64:
      return number(static_cast<double>(col.ints[r]));
    case ColumnEncoding::kDouble:
      return number(col.doubles[r]);
    case ColumnEncoding::kString:
      return Value::String(std::string(pool_.at(text_id)));
    case ColumnEncoding::kBool:
      return Value::Bool((col.bool_bits[r / 8] >> (r % 8)) & 1);
    case ColumnEncoding::kMixed:
      switch (static_cast<ValueType>(col.cell_types[r])) {
        case ValueType::kString:
          return Value::String(std::string(pool_.at(text_id)));
        case ValueType::kNumber:
          return number(col.doubles[r]);
        case ValueType::kBool:
          return Value::Bool(col.doubles[r] != 0.0);
        case ValueType::kNull:
          break;
      }
      return Value::Null();
  }
  return Value::Null();
}

size_t ColumnarTable::ApproxBytes() const {
  size_t bytes = name_.capacity() + pool_.ApproxBytes() +
                 columns_.capacity() * sizeof(TypedColumn);
  for (const ColumnSpec& spec : schema_.columns()) {
    bytes += sizeof(ColumnSpec) + spec.name.capacity();
  }
  for (const TypedColumn& col : columns_) {
    bytes += col.null_bitmap.capacity() + col.bool_bits.capacity() +
             col.cell_types.capacity();
    bytes += col.ints.capacity() * sizeof(int64_t);
    bytes += col.doubles.capacity() * sizeof(double);
    bytes += col.text_ids.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace uctr
