#include "bgp/mrt.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/errno_context.hpp"

namespace quicksand::bgp::mrt {

namespace {

/// Longest slice of an offending line quoted in error messages. Keeps a
/// megabyte garbage line from producing a megabyte exception string.
constexpr std::size_t kMaxQuotedLine = 96;

std::string QuoteForError(std::string_view line) {
  if (line.size() <= kMaxQuotedLine) return std::string(line);
  std::string out(line.substr(0, kMaxQuotedLine));
  out += "... (";
  out += std::to_string(line.size());
  out += " bytes)";
  return out;
}

std::string DescribeBadLine(std::size_t line_number, std::string_view line) {
  return "line " + std::to_string(line_number) + ": '" + QuoteForError(line) + "'";
}

/// The line form of an update or record whose AS-path is `path`.
template <typename Update>
std::string FormatLine(const Update& update, const AsPath& path) {
  std::string out = std::to_string(update.time.seconds);
  out += '|';
  out += std::to_string(update.session);
  out += '|';
  out += update.type == UpdateType::kAnnounce ? 'A' : 'W';
  out += '|';
  out += update.prefix.ToString();
  out += '|';
  if (update.type == UpdateType::kAnnounce) out += path.ToString();
  return out;
}

}  // namespace

std::string ToLine(const BgpUpdate& update) { return FormatLine(update, update.path); }

std::optional<BgpUpdate> ParseLine(std::string_view line) {
  // Split into exactly five '|'-separated fields.
  std::string_view fields[5];
  std::size_t start = 0;
  for (int i = 0; i < 5; ++i) {
    if (i == 4) {
      fields[i] = line.substr(start);
      break;
    }
    const auto bar = line.find('|', start);
    if (bar == std::string_view::npos) return std::nullopt;
    fields[i] = line.substr(start, bar - start);
    start = bar + 1;
  }

  BgpUpdate update;
  {
    // std::from_chars into int64: rejects signs-only, trailing junk, and
    // overflow outright (no stoul-style wraparound).
    auto [ptr, ec] = std::from_chars(fields[0].data(), fields[0].data() + fields[0].size(),
                                     update.time.seconds);
    if (ec != std::errc{} || ptr != fields[0].data() + fields[0].size()) return std::nullopt;
    if (update.time.seconds < 0) return std::nullopt;  // pre-epoch timestamp
  }
  {
    auto [ptr, ec] = std::from_chars(fields[1].data(), fields[1].data() + fields[1].size(),
                                     update.session);
    if (ec != std::errc{} || ptr != fields[1].data() + fields[1].size()) return std::nullopt;
  }
  if (fields[2] == "A") {
    update.type = UpdateType::kAnnounce;
  } else if (fields[2] == "W") {
    update.type = UpdateType::kWithdraw;
  } else {
    return std::nullopt;
  }
  if (fields[3].empty()) return std::nullopt;  // empty prefix field
  auto prefix = netbase::Prefix::Parse(fields[3]);
  if (!prefix) return std::nullopt;
  update.prefix = *prefix;
  if (update.type == UpdateType::kAnnounce) {
    // AsPath::Parse uses from_chars into uint32, so AS tokens above
    // 4294967295 fail the parse instead of wrapping.
    auto path = AsPath::Parse(fields[4]);
    if (!path || path->empty()) return std::nullopt;
    update.path = std::move(*path);
  } else if (!fields[4].empty()) {
    return std::nullopt;  // withdrawals carry no path
  }
  return update;
}

std::string ToText(const std::vector<BgpUpdate>& updates) {
  std::string out;
  for (const BgpUpdate& u : updates) {
    out += ToLine(u);
    out += '\n';
  }
  return out;
}

StreamParser::StreamParser(feed::AsPathTable& table) : StreamParser(table, Options{}) {}

void StreamParser::ConsumeLine(std::string_view line, std::vector<feed::UpdateRec>& out) {
  ++line_number_;
  if (line.empty() || line.front() == '#') return;
  ++stats_.total_lines;
  if (const std::optional<BgpUpdate> update = ParseLine(line)) {
    ++stats_.parsed;
    out.push_back(feed::ToRecord(*update, *table_));
    return;
  }
  if (!options_.lenient) {
    throw std::runtime_error("mrt: malformed " + DescribeBadLine(line_number_, line));
  }
  ++stats_.bad_lines;
  if (stats_.first_errors.size() < options_.max_recorded_errors) {
    stats_.first_errors.push_back(DescribeBadLine(line_number_, line));
  }
}

void StreamParser::Feed(std::string_view chunk, std::vector<feed::UpdateRec>& out) {
  if (finished_) throw std::logic_error("mrt: StreamParser::Feed after Finish");
  std::size_t start = 0;
  while (true) {
    const auto nl = chunk.find('\n', start);
    if (nl == std::string_view::npos) {
      pending_.append(chunk.substr(start));
      return;
    }
    if (pending_.empty()) {
      ConsumeLine(chunk.substr(start, nl - start), out);
    } else {
      // A previous chunk ended mid-line; complete it before parsing.
      pending_.append(chunk.substr(start, nl - start));
      ConsumeLine(pending_, out);
      pending_.clear();
    }
    start = nl + 1;
  }
}

void StreamParser::Finish(std::vector<feed::UpdateRec>& out) {
  if (finished_) return;
  finished_ = true;
  if (!pending_.empty()) {
    // The dump's final line had no trailing newline.
    std::string last;
    last.swap(pending_);
    ConsumeLine(last, out);
  }
  if (options_.lenient && stats_.bad_lines > 0) {
    // Lazily registered: a clean dump leaves no bgp.mrt.* metric behind,
    // keeping fault-free bench JSON identical to pre-fault-layer runs.
    obs::MetricsRegistry::Global()
        .GetCounter("bgp.mrt.bad_lines")
        .Increment(stats_.bad_lines);
  }
}

namespace {

/// Pull-side state shared by ParseStream and ParseFileStream: a chunk
/// producer feeds the incremental parser straight into the outgoing batch
/// until it holds a full batch of records (or input ends). Records the
/// last chunk parsed past the batch boundary carry over to open the next
/// batch, so every batch but the last holds exactly batch_size records
/// and residency stays bounded by batch_size + one chunk's worth.
feed::UpdateStream MakeParserStream(std::shared_ptr<feed::AsPathTable> table,
                                    const ParseStreamOptions& options,
                                    std::function<bool(std::string&)> next_chunk) {
  struct State {
    State(feed::AsPathTable& table, StreamParser::Options options)
        : parser(table, options) {}
    StreamParser parser;
    std::function<bool(std::string&)> next_chunk;
    std::string chunk;
    std::vector<feed::UpdateRec> carry;  ///< parsed past the last batch
    bool input_done = false;
    std::shared_ptr<ParseStats> stats_out;
  };
  auto state = std::make_shared<State>(
      *table, StreamParser::Options{.lenient = options.lenient,
                                    .max_recorded_errors = options.max_recorded_errors});
  state->next_chunk = std::move(next_chunk);
  state->stats_out = options.stats;
  const std::size_t batch_size =
      options.batch_size == 0 ? feed::kDefaultBatchSize : options.batch_size;

  return feed::UpdateStream(
      std::move(table),
      [state = std::move(state), batch_size](std::vector<feed::UpdateRec>& out) {
        out.swap(state->carry);
        while (!state->input_done && out.size() < batch_size) {
          if (state->next_chunk(state->chunk)) {
            state->parser.Feed(state->chunk, out);
          } else {
            state->parser.Finish(out);
            state->input_done = true;
            if (state->stats_out) *state->stats_out = state->parser.stats();
          }
        }
        if (out.size() > batch_size) {
          state->carry.assign(out.begin() + static_cast<std::ptrdiff_t>(batch_size),
                              out.end());
          out.resize(batch_size);
        }
        return !out.empty();
      });
}

}  // namespace

feed::UpdateStream ParseStream(std::shared_ptr<feed::AsPathTable> table,
                               std::string_view text, ParseStreamOptions options) {
  const std::size_t chunk_bytes = options.chunk_bytes == 0 ? 1 : options.chunk_bytes;
  return MakeParserStream(
      std::move(table), options,
      [text, chunk_bytes, offset = std::size_t{0}](std::string& chunk) mutable {
        if (offset >= text.size()) return false;
        const std::size_t n = std::min(chunk_bytes, text.size() - offset);
        chunk.assign(text.substr(offset, n));
        offset += n;
        return true;
      });
}

feed::UpdateStream ParseFileStream(std::shared_ptr<feed::AsPathTable> table,
                                   std::string path, ParseStreamOptions options) {
  auto in = std::make_shared<std::ifstream>(path, std::ios::binary);
  if (!*in) {
    throw std::runtime_error("mrt: cannot open '" + path + "': " + util::ErrnoDetail());
  }
  const std::size_t chunk_bytes = options.chunk_bytes == 0 ? 1 : options.chunk_bytes;
  return MakeParserStream(
      std::move(table), options,
      [in = std::move(in), chunk_bytes, path = std::move(path)](std::string& chunk) {
        chunk.resize(chunk_bytes);
        in->read(chunk.data(), static_cast<std::streamsize>(chunk_bytes));
        if (in->bad()) {
          throw std::runtime_error("mrt: read failed for '" + path +
                                   "': " + util::ErrnoDetail());
        }
        const auto got = static_cast<std::size_t>(in->gcount());
        chunk.resize(got);
        return got > 0;
      });
}

void StreamWriter::Write(const BgpUpdate& update) {
  *out_ << ToLine(update) << '\n';
  ++written_;
}

void StreamWriter::Write(const feed::UpdateRec& rec, const feed::AsPathTable& table) {
  *out_ << FormatLine(rec, table.Path(rec.path)) << '\n';
  ++written_;
}

std::size_t WriteStream(std::ostream& out, feed::UpdateStream stream) {
  StreamWriter writer(out);
  std::vector<feed::UpdateRec> batch;
  while (stream.Next(batch)) {
    for (const feed::UpdateRec& rec : batch) writer.Write(rec, *stream.paths());
  }
  return writer.written();
}

void WriteFile(const std::string& path, const std::vector<BgpUpdate>& updates) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("mrt: cannot open '" + path +
                             "' for writing: " + util::ErrnoDetail());
  }
  StreamWriter writer(out);
  for (const BgpUpdate& u : updates) writer.Write(u);
  if (!out) {
    throw std::runtime_error("mrt: write failed for '" + path + "': " + util::ErrnoDetail());
  }
}

std::vector<BgpUpdate> ParseText(std::string_view text) {
  return feed::Materialize(ParseStream(std::make_shared<feed::AsPathTable>(), text));
}

LenientParse ParseTextLenient(std::string_view text, std::size_t max_recorded_errors) {
  ParseStreamOptions options;
  options.lenient = true;
  options.max_recorded_errors = max_recorded_errors;
  options.stats = std::make_shared<ParseStats>();
  LenientParse result;
  result.updates =
      feed::Materialize(ParseStream(std::make_shared<feed::AsPathTable>(), text, options));
  result.stats = *options.stats;
  return result;
}

std::vector<BgpUpdate> ReadFile(const std::string& path) {
  return feed::Materialize(ParseFileStream(std::make_shared<feed::AsPathTable>(), path));
}

}  // namespace quicksand::bgp::mrt
