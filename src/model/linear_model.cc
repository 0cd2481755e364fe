#include "model/linear_model.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <utility>

#include "common/numeric.h"
#include "common/string_util.h"

namespace uctr::model {

namespace {

/// row_of_ entry of a slot that has no row yet.
constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

}  // namespace

LinearModel::LinearModel(int num_classes, size_t dim)
    : num_classes_(num_classes), dim_(dim), row_of_(dim, kNoRow) {}

size_t LinearModel::Row(size_t slot) {
  uint32_t& row = row_of_[slot];
  if (row == kNoRow) {
    row = static_cast<uint32_t>(weights_.size() / num_classes_);
    weights_.resize(weights_.size() + num_classes_, 0.0f);
    adagrad_.resize(adagrad_.size() + num_classes_, 0.0f);
  }
  return static_cast<size_t>(row) * num_classes_;
}

std::vector<double> LinearModel::Scores(const FeatureVector& features) const {
  std::vector<double> scores(num_classes_, 0.0);
  for (const Feature& f : features) {
    const uint32_t row = row_of_[f.index % dim_];
    if (row == kNoRow) {
      // A zero weight: it still adds 0 * value, NaN for an infinite value.
      const double zero = 0.0f * f.value;
      for (double& s : scores) s += zero;
      continue;
    }
    const float* w = &weights_[static_cast<size_t>(row) * num_classes_];
    for (int c = 0; c < num_classes_; ++c) scores[c] += w[c] * f.value;
  }
  return scores;
}

std::vector<double> LinearModel::Probabilities(
    const FeatureVector& features) const {
  std::vector<double> scores = Scores(features);
  double max_score = *std::max_element(scores.begin(), scores.end());
  double total = 0.0;
  for (double& s : scores) {
    s = std::exp(s - max_score);
    total += s;
  }
  for (double& s : scores) s /= total;
  return scores;
}

int LinearModel::Predict(const FeatureVector& features) const {
  std::vector<double> scores = Scores(features);
  return static_cast<int>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
}

void LinearModel::Update(const Example& example,
                         const std::vector<double>& probs,
                         double learning_rate, double l2, double weight) {
  for (const Feature& f : example.features) {
    const size_t row = Row(f.index % dim_);
    float* w = &weights_[row];
    float* g = &adagrad_[row];
    for (int c = 0; c < num_classes_; ++c) {
      double target = (c == example.label) ? 1.0 : 0.0;
      double grad = (probs[c] - target) * f.value * weight;
      grad += l2 * w[c];
      g[c] += static_cast<float>(grad * grad);
      double step =
          learning_rate / (1e-6 + std::sqrt(static_cast<double>(g[c])));
      w[c] -= static_cast<float>(step * grad);
    }
  }
}

double LinearModel::Train(const std::vector<Example>& examples,
                          const TrainConfig& config, Rng* rng,
                          std::vector<double>* epoch_losses) {
  if (epoch_losses != nullptr) epoch_losses->clear();
  if (examples.empty()) return 0.0;
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  double last_loss = 0.0;
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle && rng != nullptr) rng->Shuffle(&order);
    double loss = 0.0;
    double total_weight = 0.0;
    for (size_t i : order) {
      const Example& ex = examples[i];
      // Skip, don't scale: a NaN/inf/non-positive weight must never leak
      // into the AdaGrad accumulators or the reported loss.
      double w = static_cast<double>(ex.weight);
      if (!std::isfinite(w) || w <= 0.0) continue;
      std::vector<double> probs = Probabilities(ex.features);
      loss += w * -std::log(std::max(1e-12, probs[ex.label]));
      total_weight += w;
      Update(ex, probs, config.learning_rate, config.l2, w);
    }
    last_loss = total_weight > 0.0 ? loss / total_weight : 0.0;
    if (epoch_losses != nullptr) epoch_losses->push_back(last_loss);
  }
  return last_loss;
}

std::string LinearModel::SaveToString() const {
  std::string out = "uctr_linear_model v1\n";
  out += std::to_string(num_classes_) + " " + std::to_string(dim_) + "\n";
  // The slots that have rows, ascending: with classes outer, entries come
  // out in flat index order, class * dim + slot.
  std::vector<size_t> slots;
  for (size_t slot = 0; slot < dim_; ++slot) {
    if (row_of_[slot] != kNoRow) slots.push_back(slot);
  }
  char buf[64];
  auto dump = [&](const std::vector<float>& values) {
    size_t nonzero = 0;
    for (float v : values) {
      if (v != 0.0f) ++nonzero;
    }
    out += std::to_string(nonzero) + "\n";
    for (int c = 0; c < num_classes_; ++c) {
      for (size_t slot : slots) {
        float v = values[static_cast<size_t>(row_of_[slot]) * num_classes_ + c];
        if (v == 0.0f) continue;
        std::snprintf(buf, sizeof(buf), "%zu %.9g\n",
                      static_cast<size_t>(c) * dim_ + slot,
                      static_cast<double>(v));
        out += buf;
      }
    }
  };
  dump(weights_);
  dump(adagrad_);
  return out;
}

namespace {

/// Strict non-negative integer: digits only (ParseNumber is deliberately
/// lenient about currency/percent text, which a weight file must not
/// contain).
std::optional<size_t> ParseIndex(const std::string& text) {
  if (text.empty() || text.size() > 18) return std::nullopt;
  size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  return value;
}

/// Strict finite decimal/scientific float, full-string match.
std::optional<double> ParseWeightValue(const std::string& text) {
  if (text.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Sparse (index, value) entries of one weight matrix, ascending.
using Entries = std::vector<std::pair<size_t, float>>;

/// A weights file validated whole: its dimensions and the non-zero
/// entries of the weight and AdaGrad matrices.
struct WeightsFile {
  size_t classes = 0;
  size_t dim = 0;
  Entries weights;
  Entries adagrad;
};

Result<WeightsFile> ParseWeightsFile(std::string_view text) {
  // Validation contract: either the whole file is well-formed and every
  // entry comes back, or a ParseError does — a truncated, corrupt, or
  // concatenated file can never half-load a model.
  size_t pos = 0;
  auto next_line = [&]() -> Result<std::string_view> {
    if (pos > text.size()) {
      return Status::ParseError("truncated model file");
    }
    size_t end = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    return line;
  };

  UCTR_ASSIGN_OR_RETURN(std::string_view header, next_line());
  if (Trim(header) != "uctr_linear_model v1") {
    return Status::ParseError("not a uctr linear model file");
  }
  UCTR_ASSIGN_OR_RETURN(std::string_view dims, next_line());
  std::vector<std::string> parts = SplitWhitespace(dims);
  if (parts.size() != 2) return Status::ParseError("bad dimensions line");
  auto classes = ParseIndex(parts[0]);
  auto dim = ParseIndex(parts[1]);
  constexpr size_t kMaxClasses = 1u << 16;
  constexpr size_t kMaxDim = 1u << 28;
  if (!classes || !dim || *classes < 2 || *classes > kMaxClasses ||
      *dim < 1 || *dim > kMaxDim) {
    return Status::ParseError("bad dimensions");
  }
  WeightsFile file;
  file.classes = *classes;
  file.dim = *dim;
  const size_t size = *classes * *dim;

  auto load = [&](Entries* entries, bool non_negative) -> Status {
    UCTR_ASSIGN_OR_RETURN(std::string_view count_line, next_line());
    auto count = ParseIndex(Trim(count_line));
    if (!count) return Status::ParseError("bad entry count");
    if (*count > size) {
      return Status::ParseError("entry count exceeds weight matrix size");
    }
    // Entries are written in ascending index order; enforcing that catches
    // duplicated, reordered, or spliced-together files.
    for (size_t i = 0; i < *count; ++i) {
      UCTR_ASSIGN_OR_RETURN(std::string_view entry, next_line());
      std::vector<std::string> fields = SplitWhitespace(entry);
      if (fields.size() != 2) return Status::ParseError("bad weight entry");
      auto index = ParseIndex(fields[0]);
      auto value = ParseWeightValue(fields[1]);
      if (!index || *index >= size) {
        return Status::ParseError("weight index out of range");
      }
      if (!value) {
        return Status::ParseError("non-finite or malformed weight value");
      }
      if (non_negative && *value < 0.0) {
        return Status::ParseError("negative AdaGrad accumulator");
      }
      if (!entries->empty() && *index <= entries->back().first) {
        return Status::ParseError("weight indices not strictly ascending");
      }
      entries->emplace_back(*index, static_cast<float>(*value));
    }
    return Status::OK();
  };
  UCTR_RETURN_NOT_OK(load(&file.weights, /*non_negative=*/false));
  UCTR_RETURN_NOT_OK(load(&file.adagrad, /*non_negative=*/true));
  // Anything besides trailing blank lines means the file was not produced
  // by SaveToString (e.g. two files concatenated): reject it.
  while (pos <= text.size()) {
    UCTR_ASSIGN_OR_RETURN(std::string_view rest, next_line());
    if (!Trim(rest).empty()) {
      return Status::ParseError("trailing content after model data");
    }
  }
  return file;
}

}  // namespace

Status LinearModel::LoadInPlace(std::string_view text) {
  UCTR_ASSIGN_OR_RETURN(WeightsFile file, ParseWeightsFile(text));
  if (file.classes != static_cast<size_t>(num_classes_) || file.dim != dim_) {
    return Status::InvalidArgument(
        "saved weights do not match this model's configuration");
  }
  // A slot gets a row if either matrix has an entry for it.
  LinearModel loaded(num_classes_, dim_);
  for (const auto& [index, value] : file.weights) {
    loaded.weights_[loaded.Row(index % dim_) + index / dim_] = value;
  }
  for (const auto& [index, value] : file.adagrad) {
    loaded.adagrad_[loaded.Row(index % dim_) + index / dim_] = value;
  }
  *this = std::move(loaded);
  return Status::OK();
}

}  // namespace uctr::model
