#ifndef UCTR_COMMON_MANIFEST_H_
#define UCTR_COMMON_MANIFEST_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace uctr {

/// \brief One kind of checkpoint MANIFEST: its header line, its identity
/// keys, and its mark tags with the number of values a mark carries.
struct ManifestLayout {
  std::string header;
  std::vector<std::string> keys;
  std::vector<std::pair<std::string, size_t>> marks;  ///< (tag, arity)
};

/// \brief The repo's one checkpoint MANIFEST: which units of a resumable
/// job are durably finished, keyed by the identity of the run that owns
/// the directory. One item per line:
///   <header>
///   <key> <u64>       every identity key, in layout order
///   <tag> <u64>...    every mark, by tag in layout order, then ascending
/// so equal manifests serialize to equal bytes. Store rewrites the file
/// through WriteFileAtomic, so readers never see a torn manifest. All
/// identity keys must match on load: a directory written by a different
/// run is refused with InvalidArgument, never silently restarted.
class CheckpointManifest {
 public:
  using Mark = std::vector<uint64_t>;

  /// \brief No marks; one value per layout key. `layout` must outlive
  /// the manifest.
  CheckpointManifest(const ManifestLayout& layout, std::vector<uint64_t> keys);

  /// \brief A missing `path` yields a fresh manifest under `keys`; an
  /// unparseable one is a ParseError, one with other keys InvalidArgument.
  static Result<CheckpointManifest> LoadOrCreate(const std::string& path,
                                                 const ManifestLayout& layout,
                                                 std::vector<uint64_t> keys);
  static Result<CheckpointManifest> Parse(const ManifestLayout& layout,
                                          std::string_view text);
  std::string Serialize() const;
  Status Store(const std::string& path) const;

  uint64_t key(size_t i) const { return keys_[i]; }
  const std::set<Mark>& marks(size_t tag) const { return marks_[tag]; }
  bool Has(size_t tag, const Mark& mark) const {
    return marks_[tag].count(mark) > 0;
  }
  /// \brief False if `mark` was already recorded under `tag`.
  bool Add(size_t tag, Mark mark) {
    return marks_[tag].insert(std::move(mark)).second;
  }
  void Remove(size_t tag, const Mark& mark) { marks_[tag].erase(mark); }

 private:
  const ManifestLayout* layout_;
  std::vector<uint64_t> keys_;
  std::vector<std::set<Mark>> marks_;  // indexed like layout_->marks
};

}  // namespace uctr

#endif  // UCTR_COMMON_MANIFEST_H_
