#include "trace.h"

#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

namespace {

// Innermost open span on this thread: the parent of the next span opened.
thread_local uint64_t current_span = 0;

uint64_t ThreadId() {
  return static_cast<uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

}  // namespace

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer::Totals Tracer::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = durations_.find(name);
  return it == durations_.end() ? std::vector<double>{} : it->second;
}

uint64_t Tracer::NextId() { return ++next_id_; }

void Tracer::Close(const Record& record) {
  std::lock_guard<std::mutex> lock(mu_);
  Totals& totals = totals_[record.name];
  ++totals.count;
  totals.seconds += record.dur_us * 1e-6;
  durations_[record.name].push_back(record.dur_us);
  if (kept_.size() < kMaxKeptSpans) {
    kept_.push_back(record);
  } else {
    ++dropped_;
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":%llu},"
               "\"traceEvents\":[",
               static_cast<unsigned long long>(dropped_));
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Record& r = kept_[i];
    // The layer is the span name up to its last dot ("net.client.read" ->
    // "net.client"), which is how the trace viewer groups categories.
    const std::string name = r.name;
    const size_t dot = name.rfind('.');
    const std::string layer = dot == std::string::npos ? name : name.substr(0, dot);
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                 i == 0 ? "" : ",", r.name, layer.c_str(),
                 static_cast<unsigned long long>(r.tid), r.begin_us, r.dur_us,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

Span::Span(Tracer* tracer, const char* name) : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NextId();
  parent_ = current_span;
  current_span = id_;
  begin_ = Clock::now();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  current_span = parent_;
  Tracer::Record record;
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  record.tid = ThreadId();
  record.begin_us =
      std::chrono::duration<double, std::micro>(begin_ - tracer_->epoch_).count();
  record.dur_us = std::chrono::duration<double, std::micro>(end - begin_).count();
  tracer_->Close(record);
}

}  // namespace perfbench
