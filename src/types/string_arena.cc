#include "types/string_arena.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/macros.h"

namespace qprog {

namespace {

// Chunks grow geometrically from a size that suits a single plan constant
// to one that amortizes a column's or a spill run's allocations.
constexpr size_t kFirstChunk = 64;
constexpr size_t kMaxChunk = 64 * 1024;

}  // namespace

StringArena& StringArena::operator=(StringArena&& other) noexcept {
  chunks_ = std::exchange(other.chunks_, {});
  cursor_ = std::exchange(other.cursor_, nullptr);
  left_ = std::exchange(other.left_, 0);
  chunk_size_ = std::exchange(other.chunk_size_, 0);
  bytes_ = std::exchange(other.bytes_, 0);
  return *this;
}

std::string_view StringArena::Copy(std::string_view s) {
  QPROG_CHECK(s.size() <= UINT32_MAX);
  if (s.empty()) return std::string_view("", 0);
  if (s.size() > left_) {
    chunk_size_ = std::min(std::max(chunk_size_ * 2, kFirstChunk), kMaxChunk);
    size_t size = std::max(chunk_size_, s.size());
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(size));
    cursor_ = chunks_.back().get();
    left_ = size;
    bytes_ += size;
  }
  char* out = cursor_;
  std::memcpy(out, s.data(), s.size());
  cursor_ += s.size();
  left_ -= s.size();
  return std::string_view(out, s.size());
}

void StringArena::Adopt(StringArena* other) {
  if (other == this || other->chunks_.empty()) return;
  // cursor_ stays in its chunk, wherever that chunk sits in the list.
  chunks_.insert(chunks_.end(),
                 std::make_move_iterator(other->chunks_.begin()),
                 std::make_move_iterator(other->chunks_.end()));
  bytes_ += other->bytes_;
  *other = StringArena();  // `other` may keep copying, into new chunks
}

std::shared_ptr<const StringArena> OwnStrings(std::vector<Row>* rows) {
  auto strings = std::make_shared<StringArena>();
  for (Row& row : *rows) {
    for (Value& v : row) v = strings->Own(v);
  }
  return strings;
}

}  // namespace qprog
