#include "report.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>

namespace perfbench {

namespace {

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Digest::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  h_ ^= 0xff;  // separator, so ("ab","c") and ("a","bc") differ
  h_ *= 1099511628211ull;
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  result_metrics_.push_back("\"" + name + "\": {\"value\": " + Number(value) +
                            ", \"unit\": \"" + unit + "\"}");
  Detail(name, value, unit);
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "metric %-28s %14.6g %s", name.c_str(),
                value, unit.c_str());
  lines_.push_back(buf);
}

void Report::DetailSummary(const std::string& name, const Summary& s,
                           const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "summary %-27s n=%zu mean=%.6g p50=%.6g p99=%.6g %s",
                name.c_str(), s.count, s.mean, s.p50, s.p99, unit.c_str());
  lines_.push_back(buf);
}

void Report::Note(const std::string& text) { lines_.push_back(text); }

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const std::string& line : lines_) std::cout << line << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < result_metrics_.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << result_metrics_[i];
  }
  std::cout << "}}" << std::endl;
}

int32_t SpanLog::Begin(const char* name, int32_t parent, uint32_t request) {
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t span) { spans_[span].end_ns = NowNs(); }

void SpanLog::Append(const SpanLog& other) {
  int32_t base = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

double PerRequestUs(const SpanLog& log, std::string_view name, bool self) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_us[s.parent] += (s.end_ns - s.start_ns) / 1e3;
  }
  double sum = 0.0;
  std::set<uint32_t> requests;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    double us = (spans[i].end_ns - spans[i].start_ns) / 1e3;
    sum += self ? us - child_us[i] : us;
    requests.insert(spans[i].request);
  }
  return requests.empty() ? 0.0 : sum / static_cast<double>(requests.size());
}

uctr::Status WriteSpans(const std::string& path, const SpanLog& log) {
  std::ofstream out(path);
  if (!out) return uctr::Status::Internal("cannot write " + path);
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    out << "{\"span\":" << i << ",\"name\":\"" << spans[i].name
        << "\",\"start_ns\":" << spans[i].start_ns
        << ",\"end_ns\":" << spans[i].end_ns
        << ",\"parent\":" << spans[i].parent
        << ",\"request\":" << spans[i].request << "}\n";
  }
  out.flush();
  return out ? uctr::Status::OK()
             : uctr::Status::Internal("short write to " + path);
}

double SelfPeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
