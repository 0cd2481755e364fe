#include "gen/sample.h"

namespace uctr {

const char* TaskTypeToString(TaskType task) {
  switch (task) {
    case TaskType::kFactVerification:
      return "fact_verification";
    case TaskType::kQuestionAnswering:
      return "question_answering";
  }
  return "unknown";
}

const char* LabelToString(Label label) {
  switch (label) {
    case Label::kSupported:
      return "Supported";
    case Label::kRefuted:
      return "Refuted";
    case Label::kUnknown:
      return "Unknown";
  }
  return "?";
}

const char* EvidenceSourceToString(EvidenceSource source) {
  switch (source) {
    case EvidenceSource::kTableOnly:
      return "table_only";
    case EvidenceSource::kTableSplit:
      return "table_split";
    case EvidenceSource::kTableExpand:
      return "table_expand";
    case EvidenceSource::kTextOnly:
      return "text_only";
  }
  return "?";
}

size_t Dataset::CountLabel(Label label) const {
  size_t n = 0;
  for (const Sample& s : samples) {
    if (s.task == TaskType::kFactVerification && s.label == label) ++n;
  }
  return n;
}

size_t Dataset::CountSource(EvidenceSource source) const {
  size_t n = 0;
  for (const Sample& s : samples) {
    if (s.source == source) ++n;
  }
  return n;
}

size_t Dataset::CountReasoningType(const std::string& tag) const {
  size_t n = 0;
  for (const Sample& s : samples) {
    if (s.reasoning_type == tag) ++n;
  }
  return n;
}

}  // namespace uctr
