// Stream address generators.
//
// Each Merrimac processor has two address generators which together produce
// up to 8 single-word addresses per cycle, supporting strided records and
// indexed gather/scatter where the indices themselves are a stream in the
// SRF (Section 2.2). An AddressGenerator walks one stream memory
// operation's address sequence; the memory system pulls up to its per-cycle
// quota and applies backpressure when downstream queues fill.
#pragma once

#include <cstdint>
#include <vector>

namespace smd::mem {

/// Kinds of stream memory operations.
enum class MemOpKind : std::uint8_t {
  kLoadStrided,
  kLoadGather,
  kStoreStrided,
  kStoreScatter,
  kScatterAdd,
};

constexpr bool is_load(MemOpKind k) {
  return k == MemOpKind::kLoadStrided || k == MemOpKind::kLoadGather;
}
constexpr bool is_store(MemOpKind k) { return !is_load(k); }
/// Strided kinds address records by stride; the rest use an index stream.
constexpr bool is_strided(MemOpKind k) {
  return k == MemOpKind::kLoadStrided || k == MemOpKind::kStoreStrided;
}

/// Descriptor of one stream memory operation (addresses in 64-bit words).
struct MemOpDesc {
  MemOpKind kind = MemOpKind::kLoadStrided;
  std::uint64_t base = 0;        ///< word address of record 0
  std::int64_t n_records = 0;
  int record_words = 1;
  std::int64_t stride_words = 0; ///< strided: record-start distance; 0 = dense
  /// Gather/scatter/scatter-add: record index per record; address of
  /// record r = base + indices[r] * record_words.
  std::vector<std::uint64_t> indices;

  std::int64_t total_words() const {
    return n_records * static_cast<std::int64_t>(record_words);
  }
};

/// Walks the word addresses of a MemOpDesc in order. The address of the
/// current record is kept incrementally, so a step costs an add, not a
/// multiply and an index-stream load per word.
class AddressGenerator {
 public:
  void start(const MemOpDesc* desc);
  bool active() const { return desc_ != nullptr && !done(); }
  bool done() const { return record_ >= n_records_; }

  /// Next word address without advancing.
  std::uint64_t peek() const {
    if (done()) exhausted();
    return rec_base_ + static_cast<std::uint64_t>(word_in_record_);
  }
  /// Advance to the next word.
  void advance() {
    if (done()) return;
    ++word_pos_;
    if (++word_in_record_ >= record_words_) {
      word_in_record_ = 0;
      ++record_;
      if (!done()) load_record();
    }
  }

  /// Sequential position of the current word within the stream.
  std::int64_t stream_pos() const { return word_pos_; }

 private:
  [[noreturn]] static void exhausted();
  void load_record() {
    if (is_strided(desc_->kind)) {
      const std::int64_t stride =
          desc_->stride_words != 0 ? desc_->stride_words : desc_->record_words;
      rec_base_ = desc_->base + static_cast<std::uint64_t>(record_) *
                                    static_cast<std::uint64_t>(stride);
    } else {
      rec_base_ = desc_->base +
                  desc_->indices[static_cast<std::size_t>(record_)] *
                      static_cast<std::uint64_t>(desc_->record_words);
    }
  }

  const MemOpDesc* desc_ = nullptr;
  std::int64_t n_records_ = 0;
  int record_words_ = 1;
  std::int64_t record_ = 0;
  int word_in_record_ = 0;
  std::int64_t word_pos_ = 0;
  std::uint64_t rec_base_ = 0;  ///< word address of record_
};

}  // namespace smd::mem
