// SeqBitmap: the set of sequence numbers a reliable-dispatch receiver has
// already accepted, one bit per number below its high-water mark.
//
// Reliable dispatch (DESIGN §9) numbers every assignment and note, and the
// receiver drops a retransmitted copy of one it already accepted. The
// numbers come from counters: a worker's notes from its own counter, so
// they are dense; its assignments from one counter that the dispatcher
// shares across all W workers, so each worker's bitmap holds about one set
// bit in W and all W together cost about W/8 bytes per assignment. That is
// still far below a hash set's ~40 B node per number, and inserting costs
// no allocation except the rare doubling of the word array.
//
// A number more than kWindow above the highest one the bitmap holds (a
// malformed frame's, say) goes to a hash set instead, so one frame can grow
// the bitmap by at most kWindow / 8 bytes. Like the sets it replaced, it
// never forgets a number; bounding it needs a low-watermark carried on the
// wire (ROADMAP item 5).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace nicsched::core {

class SeqBitmap {
 public:
  /// 2^20 numbers: a jump of 128 KiB of bitmap at most. Between two of a
  /// worker's assignments only the other workers' numbers pass, far fewer
  /// than this unless the worker idles through a million dispatches; its
  /// numbers would then go to the hash set, answered just the same.
  static constexpr std::uint64_t kWindow = std::uint64_t{1} << 20;

  /// Adds `seq`; returns true if it was not already present.
  bool insert(std::uint64_t seq) {
    if (seq > high_water_ && seq - high_water_ > kWindow) {
      return sparse_.insert(seq).second;
    }
    high_water_ = std::max(high_water_, seq);
    const std::size_t word = static_cast<std::size_t>(seq >> 6);
    if (word >= words_.size()) {
      words_.resize(std::max(word + 1, 2 * words_.size()));
    }
    const std::uint64_t bit = std::uint64_t{1} << (seq & 63);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    return true;
  }

  /// Bytes of bitmap currently allocated. Exposed for tests.
  std::size_t bitmap_bytes() const {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  std::vector<std::uint64_t> words_;
  /// Highest number held in the bitmap.
  std::uint64_t high_water_ = 0;
  std::unordered_set<std::uint64_t> sparse_;
};

}  // namespace nicsched::core
