#include "obs/trace.hpp"

#include <atomic>
#include <fstream>
#include <istream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/atomic_file.hpp"
#include "util/parse_num.hpp"

namespace quicksand::obs {

namespace {

std::atomic<TraceSink*> g_trace{nullptr};

/// Minimal parser for the flat JSON objects ToJsonl emits. Not a general
/// JSON parser: keys and string values contain only ToJsonl's escapes.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : line_(line) {}

  TraceEvent Parse() {
    TraceEvent event;
    Expect('{');
    bool first = true;
    while (Peek() != '}') {
      if (!first) Expect(',');
      first = false;
      const std::string key = ParseString();
      Expect(':');
      if (key == "name") {
        event.name = ParseString();
      } else if (key == "ph") {
        const std::string ph = ParseString();
        if (ph.size() != 1) throw std::runtime_error("trace: bad ph value");
        event.phase = ph[0];
      } else if (key == "ts") {
        event.ts_us = ParseInt();
      } else if (key == "depth") {
        event.depth = static_cast<int>(ParseInt());
      } else if (key == "dur") {
        event.dur_us = ParseInt();
      } else if (key == "tid") {
        event.tid = static_cast<int>(ParseInt());
      } else if (key == "args") {
        Expect('{');
        bool first_arg = true;
        while (Peek() != '}') {
          if (!first_arg) Expect(',');
          first_arg = false;
          std::string arg_key = ParseString();
          Expect(':');
          event.args.emplace_back(std::move(arg_key), ParseString());
        }
        Expect('}');
      } else {
        throw std::runtime_error("trace: unknown key '" + key + "'");
      }
    }
    Expect('}');
    return event;
  }

 private:
  [[nodiscard]] char Peek() const {
    if (pos_ >= line_.size()) throw std::runtime_error("trace: truncated line");
    return line_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      throw std::runtime_error(std::string("trace: expected '") + c + "'");
    }
    ++pos_;
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (Peek() != '"') {
      char c = line_[pos_++];
      if (c == '\\') {
        const char escaped = Peek();
        ++pos_;
        switch (escaped) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            // Fail closed with the parser's own error, not a raw
            // std::invalid_argument escaping std::stoi on garbage hex.
            if (pos_ + 4 > line_.size()) throw std::runtime_error("trace: bad \\u");
            const std::optional<std::uint64_t> code =
                util::ParseU64(line_.substr(pos_, 4), 16);
            if (!code.has_value() || *code > 0xFF) {
              throw std::runtime_error("trace: bad \\u");
            }
            out += static_cast<char>(*code);
            pos_ += 4;
            break;
          }
          default: throw std::runtime_error("trace: bad escape");
        }
      } else {
        out += c;
      }
    }
    ++pos_;  // closing quote
    return out;
  }

  std::int64_t ParseInt() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9') ++pos_;
    if (pos_ == start) throw std::runtime_error("trace: expected integer");
    return std::stoll(std::string(line_.substr(start, pos_ - start)));
  }

  std::string_view line_;
  std::size_t pos_ = 0;
};

}  // namespace

TraceSink::TraceSink(const std::string& jsonl_path) {
  if (!jsonl_path.empty()) {
    out_ = std::make_unique<std::ofstream>(jsonl_path);
    if (!*out_) {
      throw std::runtime_error("TraceSink: cannot open '" + jsonl_path + "'");
    }
  }
}

TraceSink::~TraceSink() {
  if (GlobalTrace() == this) SetGlobalTrace(nullptr);
}

void TraceSink::Emit(TraceEvent event) {
  if (out_ != nullptr) *out_ << ToJsonl(event) << '\n';
  events_.push_back(std::move(event));
}

void TraceSink::Instant(std::string_view name,
                        std::vector<std::pair<std::string, std::string>> args) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Emit(TraceEvent{std::string(name), 'i', clock_.ElapsedUs(), 0, std::move(args)});
}

void TraceSink::Complete(std::string_view name, std::int64_t dur_us, int depth,
                         int tid, std::vector<std::pair<std::string, std::string>> args) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TraceEvent event{std::string(name), 'X', clock_.ElapsedUs() - dur_us, depth,
                   std::move(args)};
  event.dur_us = dur_us;
  event.tid = tid;
  Emit(std::move(event));
}

std::string TraceSink::ToJsonl(const TraceEvent& event) {
  std::string out = "{\"name\":\"" + JsonValue::Escape(event.name) + "\",\"ph\":\"";
  out += event.phase;
  out += "\",\"ts\":" + std::to_string(event.ts_us) +
         ",\"depth\":" + std::to_string(event.depth);
  // Only complete events carry a duration; only span-attributed events
  // carry a tid — omitting the defaults keeps pre-span JSONL byte-stable.
  if (event.phase == 'X') out += ",\"dur\":" + std::to_string(event.dur_us);
  if (event.tid != 0) out += ",\"tid\":" + std::to_string(event.tid);
  if (!event.args.empty()) {
    out += ",\"args\":{";
    for (std::size_t i = 0; i < event.args.size(); ++i) {
      if (i > 0) out += ',';
      out += '"' + JsonValue::Escape(event.args[i].first) + "\":\"" +
             JsonValue::Escape(event.args[i].second) + '"';
    }
    out += '}';
  }
  out += '}';
  return out;
}

std::vector<TraceEvent> TraceSink::ParseJsonl(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    events.push_back(LineParser(line).Parse());
  }
  return events;
}

void TraceSink::WriteChromeTrace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Unlike the JSONL stream (append-as-you-go by design), the Chrome
  // export is a single JSON array: publish it atomically so a crash can't
  // leave a torn document.
  util::AtomicFile out(path);
  JsonValue root = JsonValue::Object();
  JsonValue trace_events = JsonValue::Array();
  for (const TraceEvent& event : events_) {
    JsonValue e = JsonValue::Object();
    e.Set("name", event.name);
    e.Set("ph", std::string(1, event.phase));
    e.Set("ts", event.ts_us);
    if (event.phase == 'X') e.Set("dur", event.dur_us);
    e.Set("pid", 1);
    e.Set("tid", event.tid == 0 ? 1 : event.tid);
    if (!event.args.empty()) {
      JsonValue args = JsonValue::Object();
      for (const auto& [key, value] : event.args) args.Set(key, value);
      e.Set("args", std::move(args));
    }
    trace_events.Append(std::move(e));
  }
  root.Set("traceEvents", std::move(trace_events));
  out.stream() << root.Dump(2);
  out.Commit();
}

TraceSink* GlobalTrace() noexcept { return g_trace.load(std::memory_order_acquire); }

void SetGlobalTrace(TraceSink* sink) noexcept {
  g_trace.store(sink, std::memory_order_release);
}

}  // namespace quicksand::obs
