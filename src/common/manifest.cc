#include "common/manifest.h"

#include <algorithm>

#include "common/file_util.h"
#include "common/numeric.h"
#include "common/string_util.h"

namespace uctr {

CheckpointManifest::CheckpointManifest(const ManifestLayout& layout,
                                       std::vector<uint64_t> keys)
    : layout_(&layout), keys_(std::move(keys)), marks_(layout.marks.size()) {
  keys_.resize(layout.keys.size());
}

std::string CheckpointManifest::Serialize() const {
  std::string out = layout_->header;
  auto line = [&out](const std::string& name, const Mark& values) {
    out.append("\n").append(name);
    for (uint64_t v : values) out.append(" ").append(std::to_string(v));
  };
  for (size_t i = 0; i < keys_.size(); ++i) {
    line(layout_->keys[i], {keys_[i]});
  }
  for (size_t tag = 0; tag < marks_.size(); ++tag) {
    for (const Mark& mark : marks_[tag]) line(layout_->marks[tag].first, mark);
  }
  out += '\n';
  return out;
}

Result<CheckpointManifest> CheckpointManifest::Parse(
    const ManifestLayout& layout, std::string_view text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty() || Trim(lines[0]) != layout.header) {
    return Status::ParseError("not a '" + layout.header + "' manifest");
  }
  CheckpointManifest manifest(layout, {});
  std::vector<bool> seen(layout.keys.size(), false);
  for (size_t i = 1; i < lines.size(); ++i) {
    std::vector<std::string> fields = SplitWhitespace(lines[i]);
    if (fields.empty()) continue;
    Mark values;
    for (size_t f = 1; f < fields.size(); ++f) {
      UCTR_ASSIGN_OR_RETURN(uint64_t value, ParseUint64(fields[f]));
      values.push_back(value);
    }
    // The line's name picks a key or a tag, which fixes its value count.
    auto key = std::find(layout.keys.begin(), layout.keys.end(), fields[0]);
    auto tag = std::find_if(
        layout.marks.begin(), layout.marks.end(),
        [&](const auto& mark) { return mark.first == fields[0]; });
    if (key != layout.keys.end() && values.size() == 1) {
      manifest.keys_[key - layout.keys.begin()] = values[0];
      seen[key - layout.keys.begin()] = true;
    } else if (tag != layout.marks.end() && values.size() == tag->second) {
      manifest.Add(tag - layout.marks.begin(), std::move(values));
    } else {
      return Status::ParseError("malformed manifest line '" + lines[i] + "'");
    }
  }
  auto missing = std::find(seen.begin(), seen.end(), false);
  if (missing != seen.end()) {
    return Status::ParseError("manifest has no '" +
                              layout.keys[missing - seen.begin()] + "' key");
  }
  return manifest;
}

Result<CheckpointManifest> CheckpointManifest::LoadOrCreate(
    const std::string& path, const ManifestLayout& layout,
    std::vector<uint64_t> keys) {
  CheckpointManifest fresh(layout, std::move(keys));
  Result<std::string> text = ReadFileText(path);
  if (!text.ok()) {
    if (text.status().code() == StatusCode::kNotFound) return fresh;
    return text.status();
  }
  UCTR_ASSIGN_OR_RETURN(CheckpointManifest loaded, Parse(layout, *text));
  for (size_t i = 0; i < fresh.keys_.size(); ++i) {
    if (loaded.keys_[i] != fresh.keys_[i]) {
      return Status::InvalidArgument(
          path + " belongs to a different run (its " + layout.keys[i] +
          " is " + std::to_string(loaded.keys_[i]) + ", this run's is " +
          std::to_string(fresh.keys_[i]) +
          "); refusing to mix runs, use a fresh directory");
    }
  }
  return loaded;
}

Status CheckpointManifest::Store(const std::string& path) const {
  return WriteFileAtomic(path, Serialize());
}

}  // namespace uctr
