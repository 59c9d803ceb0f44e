#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string fixed(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9f", v);
  return buf;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
  if (rec_ == nullptr) return;
  Span s;
  s.parent = rec_->open_.empty() ? -1 : rec_->open_.back();
  s.exec = rec_->exec_;
  s.name = std::move(name);
  s.t0 = rec_->now();
  index_ = static_cast<int>(rec_->spans_.size());
  rec_->spans_.push_back(std::move(s));
  rec_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[static_cast<std::size_t>(index_)].t1 = rec_->now();
  rec_->open_.pop_back();
}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

std::map<std::string, double> SpanRecorder::totals_since(
    std::size_t from) const {
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].t1 - spans_[i].t0;
  }
  return out;
}

std::map<std::string, SpanRecorder::NameTotals> SpanRecorder::name_totals()
    const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& t = out[spans_[i].name];
    const double d = spans_[i].t1 - spans_[i].t0;
    ++t.calls;
    t.inclusive_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

void SpanRecorder::write_json(
    std::ostream& os, const std::map<std::string, std::string>& meta) const {
  os << "{\n  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    os << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  os << "},\n  \"by_name\": {";
  first = true;
  for (const auto& [name, t] : name_totals()) {
    os << (first ? "\n    " : ",\n    ") << json_string(name)
       << ": {\"calls\": " << t.calls
       << ", \"inclusive_s\": " << fixed(t.inclusive_s)
       << ", \"self_s\": " << fixed(t.self_s) << "}";
    first = false;
  }
  os << "\n  },\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    os << (i > 0 ? ",\n    " : "\n    ") << "{\"id\": " << i
       << ", \"parent\": " << s.parent << ", \"exec\": " << s.exec
       << ", \"name\": " << json_string(s.name) << ", \"t0\": " << fixed(s.t0)
       << ", \"t1\": " << fixed(s.t1) << "}";
  }
  os << "\n  ]\n}\n";
}

}  // namespace perfbench
