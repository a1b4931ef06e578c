#pragma once

// Record-plane test inputs. Tests write feeds as readable BgpUpdate
// literals; every pipeline stage consumes feed::UpdateRec records that
// index one AsPathTable. RecordBuilder bridges the two: it interns the
// literals into one shared table (feed::ToRecord / feed::FromVector), so
// records built from the same builder compare paths by id.

#include <memory>
#include <span>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/update.hpp"

namespace quicksand::test_support {

class RecordBuilder {
 public:
  RecordBuilder() : table_(std::make_shared<bgp::feed::AsPathTable>()) {}

  /// One record, its path interned into this builder's table.
  [[nodiscard]] bgp::feed::UpdateRec Rec(const bgp::BgpUpdate& update) {
    return bgp::feed::ToRecord(update, *table_);
  }

  /// Every update as a record, streamed through feed::FromVector.
  [[nodiscard]] std::vector<bgp::feed::UpdateRec> Recs(
      std::span<const bgp::BgpUpdate> updates) {
    bgp::feed::UpdateStream stream = bgp::feed::FromVector(table_, updates);
    return bgp::feed::Drain(stream);
  }

  /// Records back to the materialized form, for comparisons.
  [[nodiscard]] std::vector<bgp::BgpUpdate> Updates(
      std::span<const bgp::feed::UpdateRec> records) const {
    std::vector<bgp::BgpUpdate> out;
    out.reserve(records.size());
    for (const bgp::feed::UpdateRec& rec : records) {
      out.push_back(bgp::feed::ToBgpUpdate(rec, *table_));
    }
    return out;
  }

  [[nodiscard]] bgp::feed::AsPathTable& table() noexcept { return *table_; }
  [[nodiscard]] const std::shared_ptr<bgp::feed::AsPathTable>& shared() const noexcept {
    return table_;
  }

 private:
  std::shared_ptr<bgp::feed::AsPathTable> table_;
};

}  // namespace quicksand::test_support
