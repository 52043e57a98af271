#include "trace.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "util/error.h"

namespace m3dbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::begin(std::string_view name, std::uint64_t request) {
  if (!enabled_ || !recording_) return -1;
  Span span;
  span.name = std::string(name);
  span.start_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[id].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  M3DFL_ASSERT(!open_.empty() && open_.back() == id);
  open_.pop_back();
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration_us());
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream os(path);
  M3DFL_REQUIRE(os.good(), "cannot write trace file '" + path + "'");
  // Children never overlap one another (one thread, properly nested), so
  // the covered part of a parent is the sum of its children's durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[s.parent] += s.duration_us();
  }
  struct Summary {
    std::int64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Summary> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"span\":" << i << ",\"name\":\"" << s.name
       << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << "}\n";
    Summary& sum = by_name[s.name];
    ++sum.count;
    sum.total_us += s.duration_us();
    sum.self_us += s.duration_us() - child_us[i];
  }
  for (const auto& [name, sum] : by_name) {
    os << "{\"summary\":\"" << name << "\",\"count\":" << sum.count
       << ",\"total_us\":" << sum.total_us << ",\"self_us\":" << sum.self_us
       << "}\n";
  }
}

}  // namespace m3dbench
