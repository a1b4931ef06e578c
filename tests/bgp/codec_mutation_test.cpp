// Fail-closed mutation tables for the two feed codecs. A generated dump is
// damaged by seeded mutations — byte flips, truncation at every tenth
// offset, dropped or doubled field separators, numbers above 2^64 — and
// every damaged copy must be rejected cleanly or parsed into records that
// are themselves valid:
//
//   * text: strict ParseStream returns or throws std::runtime_error naming
//     the first bad line; lenient never throws and accounts for every line
//     (parsed + bad_lines == total_lines); every emitted record
//     re-serializes through StreamWriter to a line ParseLine accepts;
//   * qmrt: strict DecodeStream throws naming the damaged block (or, for a
//     truncation at a block boundary, returns the surviving blocks);
//     lenient never throws, counts the damaged blocks and keeps decoding
//     the rest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/mrt.hpp"
#include "bgp/qmrt.hpp"
#include "netbase/rng.hpp"

namespace quicksand::bgp {
namespace {

using netbase::Prefix;
using netbase::SimTime;

/// A seeded feed of announcements (1-6 hops) and withdrawals over a few
/// sessions and prefixes.
std::vector<BgpUpdate> GeneratedFeed(std::size_t count) {
  netbase::Rng rng(20140701);
  std::vector<BgpUpdate> updates;
  for (std::size_t i = 0; i < count; ++i) {
    BgpUpdate u;
    u.time = SimTime{static_cast<std::int64_t>(1000 + 7 * i)};
    u.session = static_cast<SessionId>(rng.UniformInt(0, 11));
    u.prefix = Prefix::MustParse(
        ("10." + std::to_string(rng.UniformInt(0, 30)) + ".0.0/16").c_str());
    if (rng.UniformInt(0, 5) == 0) {
      u.type = UpdateType::kWithdraw;
    } else {
      std::vector<AsNumber> hops;
      const std::size_t length = 1 + rng.UniformInt(0, 5);
      for (std::size_t h = 0; h < length; ++h) {
        hops.push_back(static_cast<AsNumber>(rng.UniformInt(1, 70000)));
      }
      u.path = AsPath(std::move(hops));
    }
    updates.push_back(std::move(u));
  }
  return updates;
}

// --------------------------------------------------------------------- text

/// Non-blank lines that do not start with '#': what total_lines counts.
std::size_t DataLines(const std::string& text) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start && text[start] != '#') ++count;
    start = end + 1;
  }
  return count;
}

/// Runs one mutated dump through both parsing modes and asserts the
/// fail-closed contract. Returns the lenient bad-line count.
std::size_t CheckTextContract(const std::string& text, const std::string& label) {
  SCOPED_TRACE(label);
  // Lenient: never throws, accounts for every line.
  auto table = std::make_shared<feed::AsPathTable>();
  mrt::ParseStreamOptions lenient;
  lenient.lenient = true;
  lenient.chunk_bytes = 97;  // chunk boundaries split lines mid-record
  lenient.batch_size = 64;
  lenient.stats = std::make_shared<mrt::ParseStats>();
  std::vector<feed::UpdateRec> records;
  try {
    feed::UpdateStream stream = mrt::ParseStream(table, text, lenient);
    records = feed::Drain(stream);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "lenient parse threw: " << e.what();
    return 0;
  }
  const mrt::ParseStats& stats = *lenient.stats;
  EXPECT_EQ(stats.parsed + stats.bad_lines, stats.total_lines);
  EXPECT_EQ(stats.total_lines, DataLines(text));
  EXPECT_EQ(records.size(), stats.parsed);

  // Every emitted record re-serializes to a line ParseLine accepts, and
  // the line denotes the same update.
  std::ostringstream out;
  mrt::StreamWriter writer(out);
  for (const feed::UpdateRec& rec : records) writer.Write(rec, *table);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t index = 0;
  while (std::getline(lines, line)) {
    const std::optional<BgpUpdate> reparsed = mrt::ParseLine(line);
    if (!reparsed.has_value() || index >= records.size()) {
      ADD_FAILURE() << "re-serialized line rejected or extra: " << line;
      break;
    }
    EXPECT_EQ(*reparsed, feed::ToBgpUpdate(records[index], *table)) << line;
    ++index;
  }
  EXPECT_EQ(index, records.size());

  // Strict: returns the same records when nothing was bad, else throws a
  // runtime_error naming the first bad line.
  mrt::ParseStreamOptions strict;
  strict.chunk_bytes = 97;
  strict.batch_size = 64;
  auto strict_table = std::make_shared<feed::AsPathTable>();
  try {
    feed::UpdateStream stream = mrt::ParseStream(strict_table, text, strict);
    const std::vector<feed::UpdateRec> strict_records = feed::Drain(stream);
    EXPECT_EQ(stats.bad_lines, 0u) << "strict parse accepted a bad line";
    EXPECT_EQ(strict_records, records);
  } catch (const std::runtime_error& e) {
    EXPECT_GT(stats.bad_lines, 0u) << "strict parse rejected a clean dump: " << e.what();
    if (!stats.first_errors.empty()) {
      // first_errors[0] reads "line <n>: '<content>'".
      const std::string& first = stats.first_errors[0];
      const std::string line_label = first.substr(0, first.find(':'));
      EXPECT_NE(std::string(e.what()).find(line_label + ":"), std::string::npos)
          << e.what() << " vs " << first;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << "strict parse threw a non-runtime_error: " << e.what();
  }
  return stats.bad_lines;
}

class TextMutationTest : public ::testing::Test {
 protected:
  void SetUp() override { text_ = mrt::ToText(GeneratedFeed(300)); }

  /// Byte offsets of every occurrence of `c`.
  std::vector<std::size_t> Positions(char c) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < text_.size(); ++i) {
      if (text_[i] == c) out.push_back(i);
    }
    return out;
  }

  std::string text_;
};

TEST_F(TextMutationTest, CleanDumpParsesWithoutLoss) {
  EXPECT_EQ(CheckTextContract(text_, "clean"), 0u);
}

TEST_F(TextMutationTest, ByteFlipsFailClosed) {
  static constexpr char kAlphabet[] = {'|', '\n', '#', ' ', '0', '7', '9', 'A', 'W',
                                       '/', '.', '-', 'x', '\0', '\x7f', '\xff'};
  netbase::Rng rng(1);
  std::size_t damaged = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = text_;
    const std::size_t flips = 1 + rng.UniformInt(0, 2);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(0, mutated.size() - 1)] =
          kAlphabet[rng.UniformInt(0, sizeof kAlphabet - 1)];
    }
    damaged += CheckTextContract(mutated, "flip trial " + std::to_string(trial)) > 0;
  }
  EXPECT_GT(damaged, 200u);  // most flips land in a field and break its line
}

TEST_F(TextMutationTest, TruncationAtEveryTenthOffsetFailsClosed) {
  for (std::size_t offset = 0; offset < text_.size(); offset += 10) {
    // A cut can leave a shorter but still valid final line, so at most
    // the one cut line is bad.
    EXPECT_LE(CheckTextContract(text_.substr(0, offset), "cut at " + std::to_string(offset)),
              1u);
  }
}

TEST_F(TextMutationTest, DroppedOrDoubledSeparatorBreaksExactlyOneLine) {
  const std::vector<std::size_t> bars = Positions('|');
  netbase::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t at = bars[rng.UniformInt(0, bars.size() - 1)];
    std::string mutated = text_;
    const bool doubled = rng.UniformInt(0, 1) == 1;
    if (doubled) {
      mutated.insert(at, 1, '|');
    } else {
      mutated.erase(at, 1);
    }
    EXPECT_EQ(CheckTextContract(mutated, (doubled ? "doubled '|' at " : "dropped '|' at ") +
                                             std::to_string(at)),
              1u);
  }
}

TEST_F(TextMutationTest, NumbersAbove2To64BreakExactlyOneLine) {
  // Replaces the timestamp, the session or one AS hop of a random line.
  const std::vector<std::size_t> newlines = Positions('\n');
  static constexpr const char* kHuge[] = {"18446744073709551616", "18446744073709551617",
                                          "99999999999999999999999999"};
  netbase::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t line = rng.UniformInt(0, newlines.size() - 1);
    const std::size_t begin = line == 0 ? 0 : newlines[line - 1] + 1;
    const std::size_t end = newlines[line];
    std::vector<std::string> fields;
    std::size_t start = begin;
    for (std::size_t bar; (bar = text_.find('|', start)) < end; start = bar + 1) {
      fields.push_back(text_.substr(start, bar - start));
    }
    fields.push_back(text_.substr(start, end - start));
    ASSERT_EQ(fields.size(), 5u);
    std::size_t field = rng.UniformInt(0, 2);
    if (field == 2) field = fields[4].empty() ? 0 : 4;  // withdrawals carry no hops
    const std::string huge = kHuge[rng.UniformInt(0, 2)];
    if (field == 4) {
      // Swap one hop of the path for the huge number.
      std::vector<std::string> hops;
      std::istringstream in(fields[4]);
      for (std::string hop; in >> hop;) hops.push_back(hop);
      hops[rng.UniformInt(0, hops.size() - 1)] = huge;
      fields[4].clear();
      for (const std::string& hop : hops) fields[4] += (fields[4].empty() ? "" : " ") + hop;
    } else {
      fields[field] = huge;
    }
    std::string replaced;
    for (std::size_t i = 0; i < fields.size(); ++i) replaced += (i ? "|" : "") + fields[i];
    std::string mutated = text_;
    mutated.replace(begin, end - begin, replaced);
    EXPECT_EQ(CheckTextContract(mutated, "huge number on line " + std::to_string(line + 1)),
              1u);
  }
}

// --------------------------------------------------------------------- qmrt

constexpr std::size_t kBlockRecords = 16;

class QmrtMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    updates_ = GeneratedFeed(300);
    wire_ = qmrt::Encode(updates_, {.block_records = kBlockRecords});
    // Block boundaries, from each header's payload size.
    for (std::size_t offset = 0; offset < wire_.size();) {
      starts_.push_back(offset);
      offset += qmrt::kHeaderBytes + PayloadSize(wire_, offset);
    }
    starts_.push_back(wire_.size());
  }

  static std::uint32_t PayloadSize(const std::string& bytes, std::size_t block) {
    std::uint32_t size = 0;
    for (int i = 3; i >= 0; --i) {
      size = (size << 8) |
             static_cast<std::uint8_t>(bytes[block + qmrt::kPayloadSizeOffset +
                                             static_cast<std::size_t>(i)]);
    }
    return size;
  }

  /// Rewrites block `block`'s checksum so a payload edit reaches the
  /// structural decoder instead of being stopped by the checksum.
  static void Reseal(std::string& bytes, std::size_t block) {
    const std::uint32_t size = PayloadSize(bytes, block);
    const std::uint32_t sum =
        qmrt::Checksum(std::string_view(bytes).substr(block + qmrt::kHeaderBytes, size));
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[block + qmrt::kChecksumOffset + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
    }
  }

  std::size_t Blocks() const { return starts_.size() - 1; }

  /// Index of the block containing byte `offset`.
  std::size_t BlockOf(std::size_t offset) const {
    std::size_t block = 0;
    while (starts_[block + 1] <= offset) ++block;
    return block;
  }

  struct Lenient {
    std::vector<BgpUpdate> updates;
    qmrt::DecodeStats stats;
  };

  /// Lenient decode; never throws.
  static Lenient DecodeLenient(const std::string& bytes) {
    qmrt::DecodeOptions options;
    options.lenient = true;
    options.batch_size = 50;
    options.stats = std::make_shared<qmrt::DecodeStats>();
    Lenient out;
    try {
      out.updates = feed::Materialize(
          qmrt::DecodeStream(std::make_shared<feed::AsPathTable>(), bytes, options));
    } catch (const std::exception& e) {
      ADD_FAILURE() << "lenient decode threw: " << e.what();
    }
    out.stats = *options.stats;
    return out;
  }

  /// Strict decode: the records, or nullopt after checking the error is a
  /// runtime_error naming a block.
  static std::optional<std::vector<BgpUpdate>> DecodeStrict(const std::string& bytes) {
    try {
      return qmrt::Decode(bytes);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("qmrt: block "), std::string::npos) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "strict decode threw a non-runtime_error: " << e.what();
    }
    return std::nullopt;
  }

  /// The original records of blocks [first, last).
  std::vector<BgpUpdate> Records(std::size_t first, std::size_t last) const {
    const auto at = [this](std::size_t block) {
      return updates_.begin() +
             static_cast<std::ptrdiff_t>(std::min(block * kBlockRecords, updates_.size()));
    };
    return {at(first), at(last)};
  }

  /// True iff `decoded` is a concatenation of whole original blocks, in
  /// order, `blocks` of them.
  bool WholeBlocks(const std::vector<BgpUpdate>& decoded, std::size_t blocks) const {
    std::size_t pos = 0;
    std::size_t matched = 0;
    for (std::size_t b = 0; b < Blocks() && pos < decoded.size(); ++b) {
      const std::vector<BgpUpdate> block = Records(b, b + 1);
      if (decoded.size() - pos >= block.size() &&
          std::equal(block.begin(), block.end(),
                     decoded.begin() + static_cast<std::ptrdiff_t>(pos))) {
        pos += block.size();
        ++matched;
      }
    }
    return pos == decoded.size() && matched == blocks;
  }

  std::vector<BgpUpdate> updates_;
  std::string wire_;
  std::vector<std::size_t> starts_;  ///< block offsets, plus the end
};

TEST_F(QmrtMutationTest, CleanWireDecodesWithoutLoss) {
  ASSERT_GT(Blocks(), 10u);
  const Lenient clean = DecodeLenient(wire_);
  EXPECT_EQ(clean.updates, updates_);
  EXPECT_EQ(clean.stats.skipped_blocks, 0u);
  EXPECT_EQ(DecodeStrict(wire_), updates_);
}

TEST_F(QmrtMutationTest, ByteFlipsDropExactlyTheDamagedBlocks) {
  netbase::Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = wire_;
    const std::size_t at = rng.UniformInt(0, mutated.size() - 1);
    mutated[at] = static_cast<char>(mutated[at] ^ static_cast<char>(rng.UniformInt(1, 255)));
    SCOPED_TRACE("flip at " + std::to_string(at));
    EXPECT_FALSE(DecodeStrict(mutated).has_value());
    const Lenient lenient = DecodeLenient(mutated);
    EXPECT_GE(lenient.stats.skipped_blocks, 1u);
    EXPECT_EQ(lenient.stats.records, lenient.updates.size());
    EXPECT_TRUE(WholeBlocks(lenient.updates, lenient.stats.blocks));
    const std::size_t damaged = BlockOf(at);
    const bool in_payload = at - starts_[damaged] >= qmrt::kHeaderBytes;
    const bool in_size_field = at - starts_[damaged] >= qmrt::kPayloadSizeOffset &&
                               at - starts_[damaged] < qmrt::kChecksumOffset;
    if (in_payload || !in_size_field) {
      // The checksum (payload, checksum field) or a magic/version resync
      // drops just the damaged block; every other block decodes.
      EXPECT_EQ(lenient.stats.skipped_blocks, 1u);
      EXPECT_EQ(lenient.stats.blocks, Blocks() - 1);
      std::vector<BgpUpdate> expected = Records(0, damaged);
      const std::vector<BgpUpdate> rest = Records(damaged + 1, Blocks());
      expected.insert(expected.end(), rest.begin(), rest.end());
      EXPECT_EQ(lenient.updates, expected);
    }
  }
}

TEST_F(QmrtMutationTest, TruncationAtEveryTenthOffsetFailsClosed) {
  for (std::size_t offset = 0; offset < wire_.size(); offset += 10) {
    SCOPED_TRACE("cut at " + std::to_string(offset));
    const std::string cut = wire_.substr(0, offset);
    const std::size_t whole = BlockOf(offset);  // blocks wholly before the cut
    const bool at_boundary = starts_[whole] == offset;
    const std::optional<std::vector<BgpUpdate>> strict = DecodeStrict(cut);
    if (at_boundary) {
      EXPECT_EQ(strict, Records(0, whole));
    } else {
      EXPECT_FALSE(strict.has_value());
    }
    const Lenient lenient = DecodeLenient(cut);
    EXPECT_EQ(lenient.updates, Records(0, whole));
    EXPECT_EQ(lenient.stats.blocks, whole);
    EXPECT_EQ(lenient.stats.skipped_blocks, at_boundary ? 0u : 1u);
  }
}

TEST_F(QmrtMutationTest, ResealedPayloadDamageFailsClosedPerBlock) {
  // Edits behind a recomputed checksum reach the structural decoder:
  // varints running past 2^64, doubled or dropped payload bytes. Each
  // damaged block decodes to valid records or is rejected whole; the
  // headers stay intact, so every block is accounted for.
  netbase::Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t block = rng.UniformInt(0, Blocks() - 1);
    const std::size_t begin = starts_[block] + qmrt::kHeaderBytes;
    const std::size_t size = starts_[block + 1] - begin;
    const std::size_t at = begin + rng.UniformInt(0, size - 1);
    std::string mutated = wire_;
    std::string label;
    switch (rng.UniformInt(0, 2)) {
      case 0:  // ten continuation bytes: a varint above 2^64
        mutated.replace(at, 1, std::string(10, '\xff') + '\x7f');
        label = "huge varint";
        break;
      case 1:
        mutated.insert(at, 1, mutated[at]);
        label = "doubled byte";
        break;
      default:
        mutated.erase(at, 1);
        label = "dropped byte";
        break;
    }
    // Keep the header's payload size in step with the edit, then reseal.
    const std::uint32_t new_size =
        static_cast<std::uint32_t>(size + mutated.size() - wire_.size());
    for (std::size_t i = 0; i < 4; ++i) {
      mutated[starts_[block] + qmrt::kPayloadSizeOffset + i] =
          static_cast<char>((new_size >> (8 * i)) & 0xFF);
    }
    Reseal(mutated, starts_[block]);
    SCOPED_TRACE(label + " in block " + std::to_string(block) + " at " + std::to_string(at));

    const Lenient lenient = DecodeLenient(mutated);
    EXPECT_EQ(lenient.stats.blocks + lenient.stats.skipped_blocks, Blocks());
    EXPECT_LE(lenient.stats.skipped_blocks, 1u);
    EXPECT_EQ(lenient.stats.records, lenient.updates.size());
    const std::optional<std::vector<BgpUpdate>> strict = DecodeStrict(mutated);
    EXPECT_EQ(strict.has_value(), lenient.stats.skipped_blocks == 0);
    if (strict) {
      EXPECT_EQ(*strict, lenient.updates);
    }
    // Whatever survived is valid: it re-encodes and decodes to itself.
    EXPECT_EQ(qmrt::Decode(qmrt::Encode(lenient.updates)), lenient.updates);
  }
}

}  // namespace
}  // namespace quicksand::bgp
