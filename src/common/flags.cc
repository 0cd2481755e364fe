#include "common/flags.h"

#include <optional>

namespace uctr {

void FlagSet::Add(std::string name, bool takes_value,
                  std::function<Status(std::string_view)> set) {
  flags_.push_back(Flag{std::move(name), takes_value, std::move(set)});
}

void FlagSet::String(std::string name, std::string* out) {
  Add(std::move(name), true, [out](std::string_view text) {
    *out = std::string(text);
    return Status::OK();
  });
}

void FlagSet::Bool(std::string name, bool* out) {
  Add(std::move(name), false, [out](std::string_view) {
    *out = true;
    return Status::OK();
  });
}

void FlagSet::Double(std::string name, double* out) {
  Add(std::move(name), true, [out](std::string_view text) -> Status {
    auto value = ParseDoubleStrict(text);
    if (!value.ok() || *value < 0.0) {
      return Status::InvalidArgument("expected a finite number >= 0");
    }
    *out = *value;
    return Status::OK();
  });
}

Status FlagSet::Parse(int argc, const char* const* argv, int first) const {
  for (int i = first; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      return Status::InvalidArgument("unexpected argument '" +
                                     std::string(arg) + "'");
    }
    std::string_view name = arg.substr(2);
    std::optional<std::string_view> value;
    if (size_t eq = name.find('='); eq != std::string_view::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const std::string flag_text = "--" + std::string(name);
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (f.name == name) flag = &f;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag " + flag_text);
    }
    if (!flag->takes_value) {
      if (value) return Status::InvalidArgument(flag_text + " takes no value");
      value = "";
    } else if (!value && i + 1 < argc &&
               std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      value = argv[++i];
    }
    if (flag->takes_value && (!value || value->empty())) {
      return Status::InvalidArgument(flag_text + " needs a value");
    }
    if (Status s = flag->set(*value); !s.ok()) {
      return Status::InvalidArgument(flag_text + ": " + s.message() +
                                     ", got '" + std::string(*value) + "'");
    }
  }
  return Status::OK();
}

}  // namespace uctr
