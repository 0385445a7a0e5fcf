// StringArena: an owner of VARCHAR bytes that Values view (DESIGN.md §2,
// "String ownership").
//
// A bump allocator over heap chunks. Copied bytes never move: chunks are
// never reallocated, and moving the arena or adopting another arena's chunks
// moves only the chunk pointers. So a Value made from Copy() stays valid
// until the arena that finally holds its chunk is destroyed. Not
// thread-safe; callers that share one arena lock around it.

#ifndef QPROG_TYPES_STRING_ARENA_H_
#define QPROG_TYPES_STRING_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "types/value.h"

namespace qprog {

class StringArena {
 public:
  StringArena() = default;
  /// Moves leave `other` empty, so it can never copy into a chunk it no
  /// longer owns.
  StringArena(StringArena&& other) noexcept { *this = std::move(other); }
  StringArena& operator=(StringArena&& other) noexcept;
  StringArena(const StringArena&) = delete;
  StringArena& operator=(const StringArena&) = delete;

  /// Copies `s` into the arena and returns a view of the copy.
  std::string_view Copy(std::string_view s);

  /// `v` re-pointed at a copy of its bytes in this arena when it is a
  /// VARCHAR; any other value unchanged.
  Value Own(const Value& v) {
    return v.type() == TypeId::kString ? Value::String(Copy(v.string_value()))
                                       : v;
  }

  /// Moves every chunk of `other` into this arena, leaving `other` empty.
  /// Views into the moved chunks stay valid.
  void Adopt(StringArena* other);

  /// Bytes held in chunks (capacity, not only the bytes copied in).
  uint64_t bytes() const { return bytes_; }

 private:
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cursor_ = nullptr;  // free space in the chunk taking copies
  size_t left_ = 0;
  size_t chunk_size_ = 0;  // doubles per chunk, up to a cap
  uint64_t bytes_ = 0;
};

/// Copies the bytes of every VARCHAR in `rows` into one new arena and
/// re-points the rows at it: the rows then outlive whatever they viewed.
std::shared_ptr<const StringArena> OwnStrings(std::vector<Row>* rows);

}  // namespace qprog

#endif  // QPROG_TYPES_STRING_ARENA_H_
