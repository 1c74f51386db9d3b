#include "src/pagestore/data_page.h"

#include <cstring>

namespace bmeh {

std::unique_ptr<DataPage> DataPage::Make(PageId id, int capacity) {
  BMEH_DCHECK(capacity >= 1);
  void* block = ::operator new(BlockBytes(capacity));
  return std::unique_ptr<DataPage>(::new (block) DataPage(id, capacity));
}

std::unique_ptr<DataPage> DataPage::Clone() const {
  std::unique_ptr<DataPage> copy = Make(id_, capacity_);
  std::memcpy(copy->slots(), slots(),
              static_cast<size_t>(size_) * sizeof(Record));
  copy->size_ = size_;
  return copy;
}

void DataPage::operator delete(DataPage* page, std::destroying_delete_t) {
  const size_t bytes = BlockBytes(page->capacity_);
  page->~DataPage();
  ::operator delete(page, bytes);
}

int DataPage::Find(const PseudoKey& key) const {
  const Record* recs = slots();
  for (int i = 0; i < size_; ++i) {
    if (recs[i].key == key) return i;
  }
  return -1;
}

Status DataPage::Insert(const Record& rec) {
  if (Contains(rec.key)) {
    return Status::AlreadyExists("key " + rec.key.ToString() +
                                 " already in page " + std::to_string(id_));
  }
  if (full()) {
    return Status::CapacityError("page " + std::to_string(id_) + " is full");
  }
  slots()[size_++] = rec;
  return Status::OK();
}

Status DataPage::Remove(const PseudoKey& key) {
  int i = Find(key);
  if (i < 0) {
    return Status::KeyError("key " + key.ToString() + " not in page " +
                            std::to_string(id_));
  }
  slots()[i] = slots()[--size_];
  return Status::OK();
}

std::optional<uint64_t> DataPage::Lookup(const PseudoKey& key) const {
  int i = Find(key);
  if (i < 0) return std::nullopt;
  return slots()[i].payload;
}

void DataPage::Partition(const std::function<bool(const Record&)>& goes_right,
                         DataPage* right) {
  Record* recs = slots();
  int w = 0;
  for (int r = 0; r < size_; ++r) {
    if (goes_right(recs[r])) {
      BMEH_CHECK(!right->full()) << "partition target overflow";
      right->slots()[right->size_++] = recs[r];
    } else {
      recs[w++] = recs[r];
    }
  }
  size_ = w;
}

int DataPage::SerializedSize(int capacity, int dims) {
  // count (4) + capacity * (dims * 4 key bytes + 8 payload bytes)
  return 4 + capacity * (dims * 4 + 8);
}

void DataPage::Serialize(int dims, std::span<uint8_t> out) const {
  BMEH_CHECK(out.size() >=
             static_cast<size_t>(SerializedSize(capacity_, dims)));
  uint8_t* p = out.data();
  uint32_t n = static_cast<uint32_t>(size_);
  std::memcpy(p, &n, 4);
  p += 4;
  for (const Record& rec : records()) {
    BMEH_DCHECK(rec.key.dims() == dims);
    for (int j = 0; j < dims; ++j) {
      uint32_t c = rec.key.component(j);
      std::memcpy(p, &c, 4);
      p += 4;
    }
    std::memcpy(p, &rec.payload, 8);
    p += 8;
  }
}

Result<std::unique_ptr<DataPage>> DataPage::Deserialize(
    PageId id, int capacity, int dims, std::span<const uint8_t> in) {
  if (in.size() < static_cast<size_t>(SerializedSize(capacity, dims))) {
    return Status::Corruption("data page buffer too small");
  }
  const uint8_t* p = in.data();
  uint32_t n;
  std::memcpy(&n, p, 4);
  p += 4;
  if (n > static_cast<uint32_t>(capacity)) {
    return Status::Corruption("data page record count " + std::to_string(n) +
                              " exceeds capacity " + std::to_string(capacity));
  }
  std::unique_ptr<DataPage> page = Make(id, capacity);
  for (uint32_t i = 0; i < n; ++i) {
    std::array<uint32_t, kMaxDims> comps{};
    for (int j = 0; j < dims; ++j) {
      std::memcpy(&comps[j], p, 4);
      p += 4;
    }
    Record& rec = page->slots()[page->size_++];
    rec.key = PseudoKey(std::span<const uint32_t>(comps.data(), dims));
    std::memcpy(&rec.payload, p, 8);
    p += 8;
  }
  return page;
}

}  // namespace bmeh
