#include "src/mem/addrgen.h"

#include <stdexcept>

namespace smd::mem {

void AddressGenerator::start(const MemOpDesc* desc) {
  desc_ = desc;
  record_ = 0;
  word_in_record_ = 0;
  n_records_ = desc_ != nullptr ? desc_->n_records : 0;
  record_words_ = desc_ != nullptr ? desc_->record_words : 1;
  if (desc_ != nullptr && !is_strided(desc_->kind) &&
      static_cast<std::int64_t>(desc_->indices.size()) < desc_->n_records) {
    throw std::runtime_error("address generator: index stream too short");
  }
  if (!done()) load_record();
}

void AddressGenerator::exhausted() {
  throw std::runtime_error("address generator exhausted");
}

}  // namespace smd::mem
