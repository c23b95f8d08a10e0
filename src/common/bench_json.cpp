#include "common/bench_json.h"

#include <cstdio>

#include "common/strings.h"

namespace aladdin {

BenchJson::BenchJson(std::string bench_name)
    : bench_name_(std::move(bench_name)) {}

void BenchJson::Tag(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  AppendJsonEscaped(quoted, value);
  quoted += '"';
  tags_.push_back({key, std::move(quoted)});
}

void BenchJson::Tag(const std::string& key, std::int64_t value) {
  tags_.push_back({key, std::to_string(value)});
}

void BenchJson::Metric(const std::string& name, double value,
                       const std::string& unit) {
  metrics_.push_back({name, unit, value});
}

void BenchJson::Percentiles(const std::string& name, const Sample& sample,
                            const std::string& unit) {
  Metric(name + "_p50", sample.Percentile(50), unit);
  Metric(name + "_p90", sample.Percentile(90), unit);
  Metric(name + "_p99", sample.Percentile(99), unit);
  Metric(name + "_max", sample.max(), unit);
  Metric(name + "_mean", sample.mean(), unit);
  Metric(name + "_count", static_cast<double>(sample.count()), "count");
}

std::string BenchJson::ToJson() const {
  std::string out = "{\n  \"schema\": \"aladdin-bench-v1\",\n  \"bench\": \"";
  AppendJsonEscaped(out, bench_name_);
  out += "\",\n  \"tags\": {";
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (i) out += ", ";
    out += '"';
    AppendJsonEscaped(out, tags_[i].key);
    out += "\": ";
    out += tags_[i].value;
  }
  out += "},\n  \"metrics\": [";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += "{\"name\": \"";
    AppendJsonEscaped(out, metrics_[i].name);
    out += "\", \"unit\": \"";
    AppendJsonEscaped(out, metrics_[i].unit);
    AppendF(out, "\", \"value\": %.9g}", metrics_[i].value);
  }
  out += "\n  ]\n}";
  return out;
}

bool BenchJson::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = ToJson();
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace aladdin
