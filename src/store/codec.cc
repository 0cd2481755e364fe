#include "store/codec.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/hash.h"

namespace uctr::store {

namespace {

/// Append-only little-endian writer over a std::string.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bytes(const void* data, size_t n) {
    out_->append(static_cast<const char*>(data), n);
  }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian reader. Every Read* fails cleanly at
/// end-of-input; callers verify element counts against remaining()
/// before sizing any allocation from untrusted lengths.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

  Status U8(uint8_t* out) {
    if (remaining() < 1) return Truncated();
    *out = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }
  Status U32(uint32_t* out) {
    if (remaining() < 4) return Truncated();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }
  Status U64(uint64_t* out) {
    if (remaining() < 8) return Truncated();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }
  Status I64(int64_t* out) {
    uint64_t bits;
    UCTR_RETURN_NOT_OK(U64(&bits));
    *out = static_cast<int64_t>(bits);
    return Status::OK();
  }
  Status F64(double* out) {
    uint64_t bits;
    UCTR_RETURN_NOT_OK(U64(&bits));
    std::memcpy(out, &bits, sizeof(*out));
    return Status::OK();
  }
  Status Bytes(void* out, size_t n) {
    if (remaining() < n) return Truncated();
    // A zero-row table's arrays are empty; memcpy from or to a null
    // pointer is undefined even for zero bytes.
    if (n > 0) std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status Str(std::string* out) {
    uint32_t len;
    UCTR_RETURN_NOT_OK(U32(&len));
    if (remaining() < len) return Truncated();
    out->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("table codec: truncated payload");
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("table codec: " + what);
}

}  // namespace

std::string Codec::Encode(const ColumnarTable& table) {
  const size_t rows = table.num_rows();
  const size_t bitmap_bytes = (rows + 7) / 8;

  std::string payload;
  ByteWriter w(&payload);
  w.Str(table.name());
  w.U32(table.pool().size());
  for (uint32_t id = 0; id < table.pool().size(); ++id) {
    w.Str(table.pool().at(id));
  }
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnSpec& spec = table.schema().column(c);
    const TypedColumn& col = table.column(c);
    w.Str(spec.name);
    w.U8(static_cast<uint8_t>(spec.type));
    w.U8(static_cast<uint8_t>(col.encoding));
    w.Bytes(col.null_bitmap.data(), bitmap_bytes);
    switch (col.encoding) {
      case ColumnEncoding::kInt64:
        w.U8(col.text_ids.empty() ? 0 : 1);
        for (int64_t v : col.ints) w.I64(v);
        for (uint32_t id : col.text_ids) w.U32(id);
        break;
      case ColumnEncoding::kDouble:
        w.U8(col.text_ids.empty() ? 0 : 1);
        for (double v : col.doubles) w.F64(v);
        for (uint32_t id : col.text_ids) w.U32(id);
        break;
      case ColumnEncoding::kString:
        for (uint32_t id : col.text_ids) w.U32(id);
        break;
      case ColumnEncoding::kBool:
        w.Bytes(col.bool_bits.data(), bitmap_bytes);
        break;
      case ColumnEncoding::kMixed:
        w.Bytes(col.cell_types.data(), rows);
        for (double v : col.doubles) w.F64(v);
        for (uint32_t id : col.text_ids) w.U32(id);
        break;
    }
  }

  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  ByteWriter h(&out);
  h.Bytes(kMagic, sizeof(kMagic));
  h.U32(kVersion);
  h.U64(payload.size());
  h.U64(Checksum64(payload));
  h.U32(static_cast<uint32_t>(table.num_columns()));
  h.U32(static_cast<uint32_t>(rows));
  out += payload;
  return out;
}

Result<ColumnarTable> Codec::Decode(std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) {
    return Corrupt("short header (" + std::to_string(bytes.size()) +
                   " bytes)");
  }
  ByteReader h(bytes.substr(0, kHeaderBytes));
  char magic[4];
  uint32_t version, num_columns, num_rows;
  uint64_t payload_size, checksum;
  UCTR_RETURN_NOT_OK(h.Bytes(magic, sizeof(magic)));
  UCTR_RETURN_NOT_OK(h.U32(&version));
  UCTR_RETURN_NOT_OK(h.U64(&payload_size));
  UCTR_RETURN_NOT_OK(h.U64(&checksum));
  UCTR_RETURN_NOT_OK(h.U32(&num_columns));
  UCTR_RETURN_NOT_OK(h.U32(&num_rows));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic");
  }
  if (version != kVersion) {
    return Corrupt("version skew: payload is v" + std::to_string(version) +
                   ", this build reads v" + std::to_string(kVersion));
  }
  if (payload_size != bytes.size() - kHeaderBytes) {
    return Corrupt("payload size mismatch: header says " +
                   std::to_string(payload_size) + ", have " +
                   std::to_string(bytes.size() - kHeaderBytes));
  }
  std::string_view payload = bytes.substr(kHeaderBytes);
  if (Checksum64(payload) != checksum) {
    return Corrupt("checksum mismatch");
  }

  const size_t rows = num_rows;
  const size_t bitmap_bytes = (rows + 7) / 8;
  ColumnarTable table;
  table.num_rows_ = rows;

  ByteReader r(payload);
  UCTR_RETURN_NOT_OK(r.Str(&table.name_));
  uint32_t pool_count;
  UCTR_RETURN_NOT_OK(r.U32(&pool_count));
  if (pool_count == 0) return Corrupt("empty string pool");
  // Each pool entry costs at least its 4-byte length prefix, so this
  // bounds the vector reserve by actual input size.
  if (static_cast<uint64_t>(pool_count) * 4 > r.remaining()) {
    return Corrupt("string pool count exceeds payload");
  }
  table.pool_.offsets_.reserve(pool_count + 1);
  std::string s;
  for (uint32_t i = 0; i < pool_count; ++i) {
    UCTR_RETURN_NOT_OK(r.Str(&s));
    if (i == 0) {
      if (!s.empty()) return Corrupt("pool id 0 is not empty string");
      continue;  // the pool starts out holding it
    }
    if (s.size() > UINT32_MAX - table.pool_.chars_.size()) {
      return Corrupt("string pool exceeds 4 GiB");
    }
    table.pool_.Add(s);
  }
  table.pool_.ShrinkToFit();

  const size_t reserve = std::min<size_t>(num_columns, r.remaining() / 2 + 1);
  std::vector<ColumnSpec> specs;
  specs.reserve(reserve);
  table.columns_.reserve(reserve);
  for (uint32_t c = 0; c < num_columns; ++c) {
    ColumnSpec spec;
    TypedColumn col;
    UCTR_RETURN_NOT_OK(r.Str(&spec.name));
    uint8_t schema_type, encoding;
    UCTR_RETURN_NOT_OK(r.U8(&schema_type));
    UCTR_RETURN_NOT_OK(r.U8(&encoding));
    if (schema_type > static_cast<uint8_t>(ColumnType::kBool)) {
      return Corrupt("column '" + spec.name + "': bad schema type " +
                     std::to_string(schema_type));
    }
    if (encoding > static_cast<uint8_t>(ColumnEncoding::kMixed)) {
      return Corrupt("column '" + spec.name + "': bad encoding " +
                     std::to_string(encoding));
    }
    spec.type = static_cast<ColumnType>(schema_type);
    col.encoding = static_cast<ColumnEncoding>(encoding);
    if (r.remaining() < bitmap_bytes) return Corrupt("truncated payload");
    col.null_bitmap.resize(bitmap_bytes);
    UCTR_RETURN_NOT_OK(r.Bytes(col.null_bitmap.data(), bitmap_bytes));

    auto read_text_ids = [&]() -> Status {
      if (r.remaining() < rows * 4) return Corrupt("truncated payload");
      col.text_ids.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        UCTR_RETURN_NOT_OK(r.U32(&col.text_ids[i]));
        if (!table.pool_.valid(col.text_ids[i])) {
          return Corrupt("column '" + spec.name + "': string id " +
                         std::to_string(col.text_ids[i]) + " out of range");
        }
      }
      return Status::OK();
    };

    switch (col.encoding) {
      case ColumnEncoding::kInt64: {
        uint8_t has_text;
        UCTR_RETURN_NOT_OK(r.U8(&has_text));
        if (has_text > 1) return Corrupt("bad has_text flag");
        if (r.remaining() < rows * 8) return Corrupt("truncated payload");
        col.ints.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          UCTR_RETURN_NOT_OK(r.I64(&col.ints[i]));
        }
        if (has_text) UCTR_RETURN_NOT_OK(read_text_ids());
        break;
      }
      case ColumnEncoding::kDouble: {
        uint8_t has_text;
        UCTR_RETURN_NOT_OK(r.U8(&has_text));
        if (has_text > 1) return Corrupt("bad has_text flag");
        if (r.remaining() < rows * 8) return Corrupt("truncated payload");
        col.doubles.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          UCTR_RETURN_NOT_OK(r.F64(&col.doubles[i]));
        }
        if (has_text) UCTR_RETURN_NOT_OK(read_text_ids());
        break;
      }
      case ColumnEncoding::kString:
        UCTR_RETURN_NOT_OK(read_text_ids());
        break;
      case ColumnEncoding::kBool:
        if (r.remaining() < bitmap_bytes) return Corrupt("truncated payload");
        col.bool_bits.resize(bitmap_bytes);
        UCTR_RETURN_NOT_OK(r.Bytes(col.bool_bits.data(), bitmap_bytes));
        break;
      case ColumnEncoding::kMixed:
        if (r.remaining() < rows * (1 + 8 + 4)) {
          return Corrupt("truncated payload");
        }
        col.cell_types.resize(rows);
        UCTR_RETURN_NOT_OK(r.Bytes(col.cell_types.data(), rows));
        for (uint8_t t : col.cell_types) {
          if (t > static_cast<uint8_t>(ValueType::kBool)) {
            return Corrupt("column '" + spec.name + "': bad cell type " +
                           std::to_string(t));
          }
        }
        col.doubles.resize(rows);
        for (size_t i = 0; i < rows; ++i) {
          UCTR_RETURN_NOT_OK(r.F64(&col.doubles[i]));
        }
        UCTR_RETURN_NOT_OK(read_text_ids());
        break;
    }
    specs.push_back(std::move(spec));
    table.columns_.push_back(std::move(col));
  }
  if (!r.done()) {
    return Corrupt(std::to_string(r.remaining()) +
                   " trailing bytes after last column");
  }
  table.schema_ = Schema(std::move(specs));
  return table;
}

std::string Codec::Fingerprint(std::string_view encoded) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, Checksum64(encoded));
  return hex;
}

uint64_t Codec::Checksum64(std::string_view bytes) {
  return hash::Fnv1a64(bytes, hash::kFnv64TruncatedBasis);
}

std::string Codec::ToHex(std::string_view bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

Result<std::string> Codec::FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex decode: odd-length input (" +
                                   std::to_string(hex.size()) + " chars)");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("hex decode: non-hex digit at offset " +
                                     std::to_string(hi < 0 ? i : i + 1));
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace uctr::store
