#include "store/durable_registry.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "store/codec.h"

namespace uctr::store {

namespace {

Status CloseQuietly(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
  return Status::OK();
}

}  // namespace

DurableStore::DurableStore(TableRegistry* registry, DurableStoreConfig config)
    : registry_(registry), config_(std::move(config)) {
  obs::MetricsRegistry& m =
      config_.metrics ? *config_.metrics : obs::DefaultRegistry();
  durable_puts_ = m.counter("store_durable_puts_total");
  evict_reloads_ = m.counter("store_evict_reload_total");
  compactions_ = m.counter("store_snapshot_compactions_total");
  recovered_total_ = m.counter("store_recovered_tables_total");
}

DurableStore::~DurableStore() {
  CloseQuietly(&snapshot_fd_);
  CloseQuietly(&wal_read_fd_);
}

std::string DurableStore::SnapshotPath() const {
  return config_.dir + "/snapshot.log";
}

std::string DurableStore::WalPath() const { return config_.dir + "/wal.log"; }

Status DurableStore::OpenReadFd(const std::string& path, int* fd) {
  CloseQuietly(fd);
  const int opened = ::open(path.c_str(), O_RDONLY);
  if (opened < 0) {
    if (errno == ENOENT) return Status::OK();  // *fd stays -1
    return Status::Unavailable("store open '" + path +
                               "': " + std::strerror(errno));
  }
  *fd = opened;
  return Status::OK();
}

Status DurableStore::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  UCTR_RETURN_NOT_OK(UCTR_FAULT_POINT("store.recover"));

  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) {
    return Status::Unavailable("store dir '" + config_.dir +
                               "': " + ec.message());
  }

  // Replay snapshot then WAL. Later records for the same fingerprint win
  // (a re-put after compaction), so replay order IS precedence order.
  // The registry insert validates every payload; a record that decodes
  // but fails table reconstruction is dropped like a corrupt one rather
  // than wedging startup.
  obs::MetricsRegistry* m = config_.metrics;
  auto replay = [&](const std::string& path,
                    DiskRef::File file) -> Result<uint64_t> {
    return Wal::Scan(
        path,
        [&](uint64_t payload_offset, std::string payload) {
          Result<PutResult> put = registry_->PutEncodedBytes(payload);
          if (!put.ok()) {
            obs::MetricsRegistry& reg = m ? *m : obs::DefaultRegistry();
            reg.counter("store_wal_corrupt_records_total")->Increment();
            return;
          }
          refs_[put->fingerprint] =
              DiskRef{file, payload_offset, payload.size()};
          ++recovered_tables_;
        },
        m);
  };

  Result<uint64_t> snap_valid = replay(SnapshotPath(), DiskRef::File::kSnapshot);
  if (!snap_valid.ok()) return snap_valid.status();
  Result<uint64_t> wal_valid = replay(WalPath(), DiskRef::File::kWal);
  if (!wal_valid.ok()) return wal_valid.status();

  // Repair the torn tail (if any) so new appends start on a record
  // boundary, then open for appending.
  std::error_code exists_ec;
  if (std::filesystem::exists(WalPath(), exists_ec)) {
    UCTR_RETURN_NOT_OK(Wal::TruncateTo(WalPath(), *wal_valid));
  }
  Wal::Options wal_options;
  wal_options.fsync = config_.fsync;
  wal_options.fsync_interval_ms = config_.fsync_interval_ms;
  wal_options.metrics = config_.metrics;
  Result<Wal> wal = Wal::Open(WalPath(), wal_options);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).ValueOrDie();

  UCTR_RETURN_NOT_OK(OpenReadFd(SnapshotPath(), &snapshot_fd_));
  UCTR_RETURN_NOT_OK(OpenReadFd(WalPath(), &wal_read_fd_));

  recovered_total_->Increment(recovered_tables_);
  recovered_ = true;
  return Status::OK();
}

Result<std::string> DurableStore::ReadRef(const DiskRef& ref) const {
  const int fd =
      ref.file == DiskRef::File::kSnapshot ? snapshot_fd_ : wal_read_fd_;
  const char* name =
      ref.file == DiskRef::File::kSnapshot ? "snapshot.log" : "wal.log";
  if (fd < 0) {
    return Status::Internal(std::string("store: disk ref into missing ") +
                            name);
  }
  std::string out(ref.length, '\0');
  size_t done = 0;
  while (done < ref.length) {
    const ssize_t n = ::pread(fd, out.data() + done, ref.length - done,
                              static_cast<off_t>(ref.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("store pread ") + name + ": " +
                                 std::strerror(errno));
    }
    if (n == 0) {
      return Status::Internal(std::string("store: disk ref past end of ") +
                              name);
    }
    done += static_cast<size_t>(n);
  }
  return out;
}

Status DurableStore::LogLocked(std::string_view fingerprint,
                               std::string_view bytes) {
  if (!recovered_ || !wal_.has_value()) {
    return Status::Internal("store: put before Recover()");
  }
  if (wal_->size_bytes() >= config_.compact_wal_bytes) {
    UCTR_RETURN_NOT_OK(CompactLocked());
  }
  uint64_t payload_offset = 0;
  UCTR_RETURN_NOT_OK(wal_->Append(bytes, &payload_offset));
  refs_[std::string(fingerprint)] =
      DiskRef{DiskRef::File::kWal, payload_offset, bytes.size()};
  if (wal_read_fd_ < 0) {
    UCTR_RETURN_NOT_OK(OpenReadFd(WalPath(), &wal_read_fd_));
  }
  durable_puts_->Increment();
  return Status::OK();
}

Status DurableStore::CompactLocked() {
  // Snapshot every live table into snapshot.log.tmp — reading payloads
  // back from their current locations — then atomically rename over
  // snapshot.log and restart the WAL empty. A crash at any point leaves
  // either the old snapshot + old WAL or the new snapshot + old WAL, and
  // WAL records override snapshot records on replay, so both recover to
  // the same acked set.
  const std::string tmp = SnapshotPath() + ".tmp";
  std::vector<std::pair<std::string, uint64_t>> order;  // fp, new offset
  order.reserve(refs_.size());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Unavailable("store compact: cannot write '" + tmp + "'");
    }
    uint64_t offset = 0;
    for (const auto& [fp, ref] : refs_) {
      Result<std::string> payload = ReadRef(ref);
      if (!payload.ok()) return payload.status();
      const std::string record = Wal::EncodeRecord(*payload);
      out.write(record.data(), static_cast<std::streamsize>(record.size()));
      order.emplace_back(fp, offset + Wal::kRecordHeaderBytes);
      offset += record.size();
    }
    out.flush();
    if (!out) {
      return Status::Unavailable("store compact: short write to '" + tmp +
                                 "'");
    }
  }
  // Force the tmp file down before the rename makes it the snapshot.
  {
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::Unavailable("store compact: reopen '" + tmp +
                                 "': " + std::strerror(errno));
    }
    while (::fsync(fd) != 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Unavailable("store compact: fsync '" + tmp +
                                 "': " + err);
    }
    ::close(fd);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, SnapshotPath(), ec);
  if (ec) {
    return Status::Unavailable("store compact: rename to '" + SnapshotPath() +
                               "': " + ec.message());
  }

  // The snapshot now holds everything; restart the WAL from offset 0.
  wal_.reset();
  UCTR_RETURN_NOT_OK(Wal::TruncateTo(WalPath(), 0));
  Wal::Options wal_options;
  wal_options.fsync = config_.fsync;
  wal_options.fsync_interval_ms = config_.fsync_interval_ms;
  wal_options.metrics = config_.metrics;
  Result<Wal> wal = Wal::Open(WalPath(), wal_options);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal).ValueOrDie();

  UCTR_RETURN_NOT_OK(OpenReadFd(SnapshotPath(), &snapshot_fd_));
  UCTR_RETURN_NOT_OK(OpenReadFd(WalPath(), &wal_read_fd_));

  for (const auto& [fp, offset] : order) {
    auto it = refs_.find(fp);
    if (it != refs_.end()) {
      it->second = DiskRef{DiskRef::File::kSnapshot, offset,
                           it->second.length};
    }
  }
  compactions_->Increment();
  return Status::OK();
}

Result<PutResult> DurableStore::Put(Table table) {
  EncodedTable encoded = TableRegistry::EncodeTable(table);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Dedup against the durable index before paying a WAL append: an
    // identical re-put is already recoverable.
    if (refs_.find(encoded.fingerprint) == refs_.end()) {
      UCTR_RETURN_NOT_OK(LogLocked(encoded.fingerprint, encoded.bytes));
    }
  }
  return registry_->PutPreEncoded(std::move(table), encoded);
}

Result<PutResult> DurableStore::PutEncodedBytes(std::string_view bytes) {
  // Validate fully before logging — the WAL must never hold bytes that
  // cannot replay.
  Result<ColumnarTable> columnar = Codec::Decode(bytes);
  if (!columnar.ok()) return columnar.status();

  EncodedTable encoded;
  encoded.bytes.assign(bytes.data(), bytes.size());
  encoded.fingerprint = Codec::Fingerprint(bytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (refs_.find(encoded.fingerprint) == refs_.end()) {
      UCTR_RETURN_NOT_OK(LogLocked(encoded.fingerprint, encoded.bytes));
    }
  }
  return registry_->PutPreEncoded(Table(std::move(*columnar)), encoded);
}

std::shared_ptr<const Table> DurableStore::Get(std::string_view fingerprint) {
  std::shared_ptr<const Table> hit = registry_->Get(fingerprint);
  if (hit != nullptr) return hit;

  // Registry miss: if the fingerprint is durable this is an LRU eviction
  // (or a restart that replayed into a smaller budget), not a loss.
  std::string bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = refs_.find(std::string(fingerprint));
    if (it == refs_.end()) return nullptr;
    Result<std::string> payload = ReadRef(it->second);
    if (!payload.ok()) return nullptr;
    bytes = std::move(payload).ValueOrDie();
  }
  Result<PutResult> put = registry_->PutEncodedBytes(bytes);
  if (!put.ok() || put->fingerprint != fingerprint) return nullptr;
  evict_reloads_->Increment();
  return registry_->Get(fingerprint);
}

Result<std::string> DurableStore::GetEncodedBytes(std::string_view fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = refs_.find(std::string(fingerprint));
  if (it == refs_.end()) {
    return Status::NotFound("table '" + std::string(fingerprint) +
                            "' has no durable copy");
  }
  return ReadRef(it->second);
}

bool DurableStore::Contains(std::string_view fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  return refs_.find(std::string(fingerprint)) != refs_.end();
}

uint64_t DurableStore::durable_tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  return refs_.size();
}

uint64_t DurableStore::wal_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.has_value() ? wal_->size_bytes() : 0;
}

}  // namespace uctr::store
