#include "exec/key_directory.h"

#include <algorithm>
#include <bit>

#include "common/macros.h"

namespace qprog {

size_t KeyDirectory::SlotOf(const Row& key, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t s = HomeSlot(hash);; s = (s + 1) & mask) {
    const uint32_t k = slots_[s];
    if (k == kEmptySlot) return s;
    if (hashes_[k] != hash) continue;
    const Value* cells = cells_.data() + k * width_;
    if (std::equal(key.begin(), key.end(), cells,
                   [](const Value& a, const Value& b) {
                     return a.EqualsForGrouping(b);
                   })) {
      return s;
    }
  }
}

void KeyDirectory::Grow() {
  const size_t size = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(size, kEmptySlot);
  slot_shift_ = 64 - std::countr_zero(size);
  const size_t mask = size - 1;
  for (size_t k = 0; k < hashes_.size(); ++k) {
    size_t s = HomeSlot(hashes_[k]);
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = static_cast<uint32_t>(k);
  }
}

size_t KeyDirectory::Find(const Row& key) const {
  QPROG_DCHECK(key.size() == width_);
  if (hashes_.empty()) return kNotFound;
  const uint32_t k = slots_[SlotOf(key, RowHash()(key))];
  return k == kEmptySlot ? kNotFound : k;
}

size_t KeyDirectory::Insert(const Row& key) {
  QPROG_DCHECK(key.size() == width_);
  // At most half full, so probe runs stay short.
  if ((hashes_.size() + 1) * 2 > slots_.size()) Grow();
  const size_t hash = RowHash()(key);
  const size_t s = SlotOf(key, hash);
  if (slots_[s] != kEmptySlot) return slots_[s];
  QPROG_CHECK(hashes_.size() < kEmptySlot);
  slots_[s] = static_cast<uint32_t>(hashes_.size());
  hashes_.push_back(hash);
  cells_.insert(cells_.end(), key.begin(), key.end());
  return hashes_.size() - 1;
}

void KeyDirectory::Clear() {
  hashes_.clear();
  cells_.clear();
  std::fill(slots_.begin(), slots_.end(), kEmptySlot);
}

void KeyDirectory::Release() {
  hashes_ = std::vector<size_t>();
  cells_ = std::vector<Value>();
  slots_ = std::vector<uint32_t>();
  slot_shift_ = 64;
}

}  // namespace qprog
