#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/span.hpp"

namespace quicksand::obs {
namespace {

/// Temp-file path helper; removes the file on destruction.
struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name) {
    path = std::string(::testing::TempDir()) + name;
  }
  ~TempPath() { std::remove(path.c_str()); }
};

/// Installs `sink` as the global trace for one scope.
struct GlobalTraceGuard {
  explicit GlobalTraceGuard(TraceSink& sink) { SetGlobalTrace(&sink); }
  ~GlobalTraceGuard() { SetGlobalTrace(nullptr); }
};

TEST(TraceSink, RecordsPhaseNesting) {
  TraceSink sink;
  {
    const GlobalTraceGuard guard(sink);
    const ScopedSpan outer("outer");
    {
      const ScopedSpan inner("inner", {{"k", "v"}});
      sink.Instant("tick");
    }
  }

  // Spans emit one 'X' event when they close, so the inner span lands
  // first; each carries its nesting depth. Instants carry depth 0.
  const auto& events = sink.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "tick");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[1].args, (std::vector<std::pair<std::string, std::string>>{{"k", "v"}}));
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].phase, 'X');
  EXPECT_EQ(events[2].depth, 0);
  // The outer span starts no later and ends no earlier than the inner one.
  EXPECT_LE(events[2].ts_us, events[1].ts_us);
  EXPECT_GE(events[2].ts_us + events[2].dur_us, events[1].ts_us + events[1].dur_us);
}

TEST(TraceSink, JsonlRoundTrip) {
  TraceSink sink;
  {
    const GlobalTraceGuard guard(sink);
    const ScopedSpan span("phase \"quoted\"", {{"key", "line1\nline2"}, {"n", "42"}});
    sink.Instant("point \\ tab\t", {{"ctl", std::string("a\x01b")}});
  }

  std::string jsonl;
  for (const TraceEvent& event : sink.events()) {
    const std::string line = TraceSink::ToJsonl(event);
    // Escaping keeps one event per line: no raw newline, tab or control
    // byte survives into the JSONL text.
    for (const char c : line) EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
    jsonl += line;
    jsonl += '\n';
  }
  std::istringstream in(jsonl);
  const std::vector<TraceEvent> parsed = TraceSink::ParseJsonl(in);
  ASSERT_EQ(parsed.size(), sink.events().size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], sink.events()[i]) << "event " << i;
  }
}

TEST(TraceSink, EndWithoutBeginIsNoOp) {
  // A span opened while no sink was installed emits no unmatched end
  // event when it closes under a sink installed meanwhile.
  TraceSink sink;
  {
    const ScopedSpan span("opened_without_sink");
    SetGlobalTrace(&sink);
  }
  SetGlobalTrace(nullptr);
  EXPECT_TRUE(sink.events().empty());
}

TEST(TraceSink, CompleteEventsRoundTrip) {
  TraceSink sink;
  sink.Complete("span", /*dur_us=*/1234, /*depth=*/2, /*tid=*/3, {{"k", "v"}});
  sink.Complete("plain", /*dur_us=*/0, /*depth=*/0, /*tid=*/0);

  const auto& events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].dur_us, 1234);
  EXPECT_EQ(events[0].tid, 3);
  // The event's ts is its start: emission time minus duration.
  EXPECT_GE(events[1].ts_us, events[0].ts_us);

  std::string jsonl;
  for (const TraceEvent& event : events) {
    jsonl += TraceSink::ToJsonl(event);
    jsonl += '\n';
  }
  // dur is always serialized for 'X' events; tid only when attributed.
  EXPECT_NE(jsonl.find("\"dur\":1234"), std::string::npos);
  EXPECT_NE(jsonl.find("\"tid\":3"), std::string::npos);
  std::istringstream in(jsonl);
  const std::vector<TraceEvent> parsed = TraceSink::ParseJsonl(in);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], events[i]) << "event " << i;
  }
}

TEST(TraceSink, NonSpanJsonlOmitsDurAndTid) {
  // Instant serialization must stay byte-stable: instants carry no dur or
  // tid keys, so traces from non-profiled runs are unchanged.
  TraceSink sink;
  sink.Instant("phase");
  sink.Instant("tick", {{"k", "v"}});
  for (const TraceEvent& event : sink.events()) {
    const std::string line = TraceSink::ToJsonl(event);
    EXPECT_EQ(line.find("\"dur\""), std::string::npos) << line;
    EXPECT_EQ(line.find("\"tid\""), std::string::npos) << line;
  }
}

TEST(TraceSink, ParseRejectsMalformedInput) {
  std::istringstream bad("not json\n");
  EXPECT_THROW((void)TraceSink::ParseJsonl(bad), std::runtime_error);
}

TEST(TraceSink, StreamsJsonlToFile) {
  TempPath tmp("quicksand_trace_test.jsonl");
  {
    TraceSink sink(tmp.path);
    const GlobalTraceGuard guard(sink);
    sink.Instant("write");
    const ScopedSpan span("span");
  }
  std::ifstream in(tmp.path);
  ASSERT_TRUE(in.good());
  const std::vector<TraceEvent> parsed = TraceSink::ParseJsonl(in);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, "write");
  EXPECT_EQ(parsed[1].name, "span");
  EXPECT_EQ(parsed[1].phase, 'X');
}

TEST(TraceSink, WritesChromeTraceArray) {
  TempPath tmp("quicksand_trace_test_chrome.json");
  TraceSink sink;
  sink.Instant("p");
  sink.Complete("q \"x\"", /*dur_us=*/5, /*depth=*/0, /*tid=*/2);
  sink.WriteChromeTrace(tmp.path);
  std::ifstream in(tmp.path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  // The whole document is one well-formed JSON value.
  std::string error;
  const std::optional<JsonValue> root = JsonValue::Parse(content, &error);
  ASSERT_TRUE(root.has_value()) << error;
  const JsonValue* events = root->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->elements().size(), 2u);
  const JsonValue* name = events->elements()[1].Find("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->AsString(), "q \"x\"");
}

TEST(GlobalTraceSink, InstallAndClear) {
  EXPECT_EQ(GlobalTrace(), nullptr);
  {
    TraceSink sink;
    SetGlobalTrace(&sink);
    EXPECT_EQ(GlobalTrace(), &sink);
    {
      const ScopedSpan span("scoped");
    }
    ASSERT_EQ(sink.events().size(), 1u);
    EXPECT_EQ(sink.events()[0].name, "scoped");
    // The sink's destructor clears the global pointer it owns.
  }
  EXPECT_EQ(GlobalTrace(), nullptr);
}

// ScopedSpan replaced the scoped phase guard this suite is named after.
TEST(ScopedPhase, InertOnNullSink) {
  EXPECT_EQ(GlobalTrace(), nullptr);
  const ScopedSpan span("nothing");  // no sink, no registry: must not crash
  EXPECT_EQ(GlobalTrace(), nullptr);
}

}  // namespace
}  // namespace quicksand::obs
