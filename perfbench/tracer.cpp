#include "tracer.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

double Tracer::now_ns() const {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::open(std::string name) {
  SpanRecord record;
  record.name = std::move(name);
  record.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(record));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  spans_[index].start_ns = now_ns();
  return index;
}

double Tracer::close(int index) {
  spans_[index].end_ns = now_ns();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
  return spans_[index].duration_ns();
}

bool Tracer::write_json(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}%s\n",
                 s.name.c_str(), s.start_ns / 1e3, s.duration_ns() / 1e3, i,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
