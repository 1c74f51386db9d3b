// DataPage: a bucket of at most b records.
//
// The paper's data pages hold up to b records; pages split when the
// (b+1)-st record arrives.  The experiments treat a data page as one disk
// block regardless of b (b is the paper's independent variable).  DataPage
// also knows how to serialize itself into a raw page for persistence.

#ifndef BMEH_PAGESTORE_DATA_PAGE_H_
#define BMEH_PAGESTORE_DATA_PAGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <type_traits>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/encoding/pseudo_key.h"
#include "src/pagestore/page.h"

namespace bmeh {

/// \brief A stored record: pseudo-key plus opaque payload (e.g. a RID).
struct Record {
  PseudoKey key;
  uint64_t payload = 0;

  bool operator==(const Record& other) const {
    return key == other.key && payload == other.payload;
  }
};
static_assert(std::is_trivially_copyable_v<Record> &&
                  std::is_trivially_destructible_v<Record>,
              "DataPage copies records as raw bytes into its slots");

/// \brief In-memory data page of capacity b.
///
/// One allocation holds the header and all `capacity` record slots, so a
/// copy-on-write clone is a single allocation plus a copy of the live
/// records, and a probe walks one contiguous block.  Pages therefore live
/// only on the heap: Make allocates one, Clone copies one, and `delete`
/// (a destroying operator delete) frees the whole block.
class alignas(Record) DataPage {
 public:
  /// \brief An empty page with room for `capacity` records.
  static std::unique_ptr<DataPage> Make(PageId id, int capacity);

  /// \brief A copy with the same id, capacity and records.
  std::unique_ptr<DataPage> Clone() const;

  DataPage(const DataPage&) = delete;
  DataPage& operator=(const DataPage&) = delete;

  /// Frees the block Make or Clone allocated (sized by the capacity).
  void operator delete(DataPage* page, std::destroying_delete_t);

  PageId id() const { return id_; }
  int capacity() const { return capacity_; }
  int size() const { return size_; }
  bool full() const { return size_ >= capacity_; }
  bool empty() const { return size_ == 0; }

  std::span<const Record> records() const {
    return {slots(), static_cast<size_t>(size_)};
  }

  /// \brief Index of the record with `key`, or -1.
  int Find(const PseudoKey& key) const;

  bool Contains(const PseudoKey& key) const { return Find(key) >= 0; }

  /// \brief Inserts a record.  Fails with AlreadyExists on a duplicate key
  /// and CapacityError when the page is full.
  Status Insert(const Record& rec);

  /// \brief Removes the record with `key`; KeyError if absent.
  Status Remove(const PseudoKey& key);

  /// \brief Payload of the record with `key`, if present.
  std::optional<uint64_t> Lookup(const PseudoKey& key) const;

  /// \brief Moves every record for which `goes_right` is true into `right`.
  /// Used by page splits; `right` must have enough free capacity.
  void Partition(const std::function<bool(const Record&)>& goes_right,
                 DataPage* right);

  /// \brief Removes all records.
  void Clear() { size_ = 0; }

  /// \brief Bytes needed to serialize a page of `capacity` records with
  /// `dims`-dimensional keys.
  static int SerializedSize(int capacity, int dims);

  /// \brief Serializes into `out` (size >= SerializedSize).
  void Serialize(int dims, std::span<uint8_t> out) const;

  /// \brief Reconstructs a page from serialized bytes.
  static Result<std::unique_ptr<DataPage>> Deserialize(
      PageId id, int capacity, int dims, std::span<const uint8_t> in);

 private:
  DataPage(PageId id, int capacity) : id_(id), capacity_(capacity) {}

  /// Bytes of the block holding the header and `capacity` slots.
  static size_t BlockBytes(int capacity) {
    return sizeof(DataPage) + static_cast<size_t>(capacity) * sizeof(Record);
  }

  // The record slots start right after the header.
  Record* slots() { return reinterpret_cast<Record*>(this + 1); }
  const Record* slots() const {
    return reinterpret_cast<const Record*>(this + 1);
  }

  PageId id_;
  int capacity_;
  int size_ = 0;
};

}  // namespace bmeh

#endif  // BMEH_PAGESTORE_DATA_PAGE_H_
