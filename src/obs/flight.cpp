#include "obs/flight.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>

namespace caraoke::obs {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(capacity_);
}

void FlightRecorder::record(Event event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[next_] = std::move(event);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t FlightRecorder::totalRecorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::vector<Event> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  // Once the ring has cycled, next_ points at the oldest entry.
  const std::size_t start = ring_.size() < capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

std::vector<Event> FlightRecorder::snapshot(
    std::size_t maxEntries, const std::string& traceHexFilter) const {
  std::vector<Event> all = snapshot();
  std::vector<Event> out;
  out.reserve(all.size());
  for (Event& event : all) {
    if (!traceHexFilter.empty()) {
      const FieldValue* trace = event.find("trace");
      if (trace == nullptr ||
          !std::holds_alternative<std::string>(*trace) ||
          std::get<std::string>(*trace) != traceHexFilter)
        continue;
    }
    out.push_back(std::move(event));
  }
  // "Newest K": drop from the front (snapshot() is oldest-first).
  if (maxEntries != 0 && out.size() > maxEntries)
    out.erase(out.begin(),
              out.begin() + static_cast<std::ptrdiff_t>(out.size() - maxEntries));
  return out;
}

std::string FlightRecorder::jsonLines(std::size_t maxEntries,
                                      const std::string& traceHexFilter) const {
  std::string out;
  for (const Event& event : snapshot(maxEntries, traceHexFilter)) {
    out += toJsonLine(event);
    out += '\n';
  }
  return out;
}

bool FlightRecorder::dumpToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = jsonLines();
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
}

}  // namespace caraoke::obs
