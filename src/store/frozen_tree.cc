#include "src/store/frozen_tree.h"

#include <cstring>
#include <optional>
#include <unordered_map>

#include "src/hashdir/descent.h"
#include "src/hashdir/range_walk.h"

namespace bmeh {

using hashdir::DirNode;
using hashdir::Entry;
using hashdir::Ref;
using hashdir::RefKind;

namespace {

constexpr uint32_t kFrozenMagic = 0x424d465a;  // "BMFZ"
constexpr uint8_t kNodePageType = 1;
constexpr uint8_t kDataPageType = 2;

class PageWriter {
 public:
  explicit PageWriter(int page_size) : buf_(page_size, 0) {}

  bool U8(uint8_t v) { return Put(&v, 1); }
  bool U16(uint16_t v) { return Put(&v, 2); }
  bool U32(uint32_t v) { return Put(&v, 4); }
  bool U64(uint64_t v) { return Put(&v, 8); }

  std::span<const uint8_t> bytes() const { return buf_; }
  std::span<uint8_t> tail() {
    return std::span<uint8_t>(buf_).subspan(pos_);
  }
  void Advance(size_t n) { pos_ += n; }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool Put(const void* p, size_t n) {
    if (pos_ + n > buf_.size()) return false;
    std::memcpy(buf_.data() + pos_, p, n);
    pos_ += n;
    return true;
  }
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
};

class PageReader {
 public:
  explicit PageReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> U8() { return Get<uint8_t>(); }
  Result<uint16_t> U16() { return Get<uint16_t>(); }
  Result<uint32_t> U32() { return Get<uint32_t>(); }
  Result<uint64_t> U64() { return Get<uint64_t>(); }
  std::span<const uint8_t> tail() const { return data_.subspan(pos_); }

 private:
  template <typename T>
  Result<T> Get() {
    if (pos_ + sizeof(T) > data_.size()) {
      return Status::Corruption("truncated frozen page");
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// Serializes one directory node (with child refs already translated to
/// store page ids) into a page image.
Status EncodeNode(const DirNode& node, int dims, PageWriter* w) {
  const auto& hist = node.history();
  bool ok = w->U8(kNodePageType);
  ok = ok && w->U16(static_cast<uint16_t>(hist.event_count()));
  for (int i = 0; ok && i < hist.event_count(); ++i) {
    ok = w->U8(static_cast<uint8_t>(hist.event_dim(i)));
  }
  for (uint64_t a = 0; ok && a < node.entry_count(); ++a) {
    const Entry& e = node.at_address(a);
    ok = w->U8(static_cast<uint8_t>(e.ref.kind));
    ok = ok && w->U32(e.ref.id);
    for (int j = 0; ok && j < dims; ++j) ok = w->U8(e.h[j]);
    ok = ok && w->U8(e.m);
  }
  if (!ok) {
    return Status::CapacityError(
        "directory node does not fit in one store page; use a larger "
        "page size or smaller phi");
  }
  return Status::OK();
}

Result<DirNode> DecodeNode(std::span<const uint8_t> data,
                           const KeySchema& schema) {
  PageReader r(data);
  const int d = schema.dims();
  BMEH_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (type != kNodePageType) {
    return Status::Corruption("expected a frozen node page");
  }
  BMEH_ASSIGN_OR_RETURN(uint16_t n_events, r.U16());
  DirNode node(d);
  for (uint16_t i = 0; i < n_events; ++i) {
    BMEH_ASSIGN_OR_RETURN(uint8_t dim, r.U8());
    if (dim >= d || node.depth(dim) >= schema.width(dim)) {
      return Status::Corruption("bad node growth event");
    }
    node.Double(dim);
  }
  for (uint64_t a = 0; a < node.entry_count(); ++a) {
    Entry e;
    BMEH_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > static_cast<uint8_t>(RefKind::kNode)) {
      return Status::Corruption("bad frozen ref kind");
    }
    e.ref.kind = static_cast<RefKind>(kind);
    BMEH_ASSIGN_OR_RETURN(e.ref.id, r.U32());
    for (int j = 0; j < d; ++j) {
      BMEH_ASSIGN_OR_RETURN(e.h[j], r.U8());
      if (e.h[j] > node.depth(j)) {
        return Status::Corruption("frozen local depth exceeds node depth");
      }
    }
    BMEH_ASSIGN_OR_RETURN(e.m, r.U8());
    node.at_address(a) = e;
  }
  return node;
}

}  // namespace

Result<PageId> FrozenBmehTree::Freeze(const BmehTree& tree,
                                      PageStore* store) {
  const int d = tree.schema().dims();

  // Pass 1: reserve a store page for every node and data page.
  std::unordered_map<uint32_t, PageId> node_page;
  std::unordered_map<uint32_t, PageId> data_page;
  Status bad = Status::OK();
  tree.nodes().ForEach([&](uint32_t id, const DirNode&) {
    if (!bad.ok()) return;
    auto p = store->Allocate();
    if (!p.ok()) {
      bad = p.status();
      return;
    }
    node_page[id] = *p;
  });
  BMEH_RETURN_NOT_OK(bad);
  tree.data_pages().ForEach([&](uint32_t id, const DataPage&) {
    if (!bad.ok()) return;
    auto p = store->Allocate();
    if (!p.ok()) {
      bad = p.status();
      return;
    }
    data_page[id] = *p;
  });
  BMEH_RETURN_NOT_OK(bad);

  // Pass 2: write data pages.
  tree.data_pages().ForEach([&](uint32_t id, const DataPage& page) {
    if (!bad.ok()) return;
    PageWriter w(store->page_size());
    if (!w.U8(kDataPageType) ||
        w.remaining() <
            static_cast<size_t>(
                DataPage::SerializedSize(page.capacity(), d))) {
      bad = Status::CapacityError(
          "data page does not fit in one store page; use a larger page "
          "size or smaller b");
      return;
    }
    page.Serialize(d, w.tail());
    bad = store->Write(data_page[id], w.bytes());
  });
  BMEH_RETURN_NOT_OK(bad);

  // Pass 3: write directory nodes with translated child refs.
  tree.nodes().ForEach([&](uint32_t id, const DirNode& node) {
    if (!bad.ok()) return;
    // Copy the node and rewrite refs.
    DirNode copy(d);
    {
      const auto& hist = node.history();
      for (int i = 0; i < hist.event_count(); ++i) {
        copy.Double(hist.event_dim(i));
      }
      for (uint64_t a = 0; a < node.entry_count(); ++a) {
        Entry e = node.at_address(a);
        if (e.ref.is_node()) {
          e.ref.id = node_page.at(e.ref.id);
        } else if (e.ref.is_page()) {
          e.ref.id = data_page.at(e.ref.id);
        }
        copy.at_address(a) = e;
      }
    }
    PageWriter w(store->page_size());
    bad = EncodeNode(copy, d, &w);
    if (!bad.ok()) return;
    bad = store->Write(node_page[id], w.bytes());
  });
  BMEH_RETURN_NOT_OK(bad);

  // Metadata page.
  BMEH_ASSIGN_OR_RETURN(PageId meta, store->Allocate());
  PageWriter w(store->page_size());
  bool ok = w.U32(kFrozenMagic);
  ok = ok && w.U8(static_cast<uint8_t>(d));
  for (int j = 0; ok && j < d; ++j) {
    ok = w.U8(static_cast<uint8_t>(tree.schema().width(j)));
  }
  ok = ok && w.U32(static_cast<uint32_t>(tree.page_capacity()));
  ok = ok && w.U32(static_cast<uint32_t>(tree.height()));
  ok = ok && w.U64(tree.Stats().records);
  ok = ok && w.U32(node_page.at(tree.root_id()));
  if (!ok) return Status::CapacityError("metadata page overflow");
  BMEH_RETURN_NOT_OK(store->Write(meta, w.bytes()));
  return meta;
}

FrozenBmehTree::FrozenBmehTree(PageStore* store, const KeySchema& schema,
                               int page_capacity, int levels,
                               uint64_t records, PageId root_page,
                               int pool_pages)
    : store_(store),
      schema_(schema),
      page_capacity_(page_capacity),
      levels_(levels),
      records_(records),
      root_page_(root_page),
      pool_(std::make_unique<BufferPool>(store, pool_pages)) {}

Result<std::unique_ptr<FrozenBmehTree>> FrozenBmehTree::Open(
    PageStore* store, PageId meta, int pool_pages) {
  std::vector<uint8_t> buf(store->page_size());
  BMEH_RETURN_NOT_OK(store->Read(meta, buf));
  PageReader r(buf);
  BMEH_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kFrozenMagic) {
    return Status::Corruption("bad frozen-tree magic");
  }
  BMEH_ASSIGN_OR_RETURN(uint8_t d, r.U8());
  if (d < 1 || d > kMaxDims) return Status::Corruption("bad dims");
  std::array<int, kMaxDims> widths{};
  for (int j = 0; j < d; ++j) {
    BMEH_ASSIGN_OR_RETURN(uint8_t wj, r.U8());
    if (wj < 1 || wj > 32) return Status::Corruption("bad width");
    widths[j] = wj;
  }
  KeySchema schema(std::span<const int>(widths.data(), d));
  BMEH_ASSIGN_OR_RETURN(uint32_t b, r.U32());
  BMEH_ASSIGN_OR_RETURN(uint32_t levels, r.U32());
  BMEH_ASSIGN_OR_RETURN(uint64_t records, r.U64());
  BMEH_ASSIGN_OR_RETURN(uint32_t root_page, r.U32());
  if (b < 1 || levels < 1) return Status::Corruption("bad frozen header");

  auto tree = std::unique_ptr<FrozenBmehTree>(new FrozenBmehTree(
      store, schema, static_cast<int>(b), static_cast<int>(levels), records,
      root_page, pool_pages));
  // Decode and pin the root once; later probes do not pay for it.
  BMEH_ASSIGN_OR_RETURN(DirNode root, tree->FetchNode(root_page));
  tree->root_ = std::make_unique<DirNode>(std::move(root));
  tree->base_reads_ = store->stats().reads;
  return tree;
}

Result<DirNode> FrozenBmehTree::FetchNode(PageId page) {
  BMEH_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  return DecodeNode(h.data(), schema_);
}

Result<DataPage> FrozenBmehTree::FetchDataPage(PageId page) {
  BMEH_ASSIGN_OR_RETURN(PageHandle h, pool_->Fetch(page));
  PageReader r(h.data());
  BMEH_ASSIGN_OR_RETURN(uint8_t type, r.U8());
  if (type != kDataPageType) {
    return Status::Corruption("expected a frozen data page");
  }
  return DataPage::Deserialize(page, page_capacity_, schema_.dims(),
                               r.tail());
}

/// The frozen image as a node source for hashdir::Descend: the root is
/// pinned, everything below it is fetched through the pool and decoded.
class FrozenBmehTree::View {
 public:
  explicit View(FrozenBmehTree* tree)
      : tree_(tree), node_(tree->root_.get()) {}

  uint32_t root() const { return tree_->root_page_; }
  const DirNode& node() const { return *node_; }
  Status Visit(uint32_t id, bool is_root) {
    if (is_root) return Status::OK();
    BMEH_ASSIGN_OR_RETURN(DirNode next, tree_->FetchNode(id));
    node_ = &owned_.emplace(std::move(next));
    return Status::OK();
  }
  Status Malformed(const char* what) const { return Status::Corruption(what); }
  Status Validate() const { return Status::OK(); }
  bool Quarantined(uint32_t) const { return false; }
  Result<const DataPage*> Page(uint32_t id) {
    BMEH_ASSIGN_OR_RETURN(DataPage page, tree_->FetchDataPage(id));
    return &page_.emplace(std::move(page));
  }

 private:
  FrozenBmehTree* tree_;
  const DirNode* node_;
  std::optional<DirNode> owned_;
  std::optional<DataPage> page_;
};

Result<uint64_t> FrozenBmehTree::Search(const PseudoKey& key) {
  BMEH_RETURN_NOT_OK(schema_.Validate(key));
  View view(this);
  return hashdir::PointLookup(schema_, view, key);
}

Status FrozenBmehTree::RangeSearch(const RangePredicate& pred,
                                   std::vector<Record>* out) {
  // Per-query caches keep decoded nodes/pages alive for the walk.
  std::unordered_map<uint32_t, std::unique_ptr<DirNode>> nodes;
  Status bad = Status::OK();

  hashdir::RangeWalkCallbacks cbs;
  cbs.get_node = [&](uint32_t id, int) -> const DirNode* {
    if (id == root_page_) return root_.get();
    auto it = nodes.find(id);
    if (it != nodes.end()) return it->second.get();
    auto fetched = FetchNode(id);
    if (!fetched.ok()) {
      bad = fetched.status();
      return nullptr;
    }
    auto owned = std::make_unique<DirNode>(std::move(fetched).ValueOrDie());
    const DirNode* raw = owned.get();
    nodes.emplace(id, std::move(owned));
    return raw;
  };
  cbs.visit_page = [&](uint32_t id, const RangePredicate& p,
                       std::vector<Record>* o) {
    auto page = FetchDataPage(id);
    if (!page.ok()) {
      bad = page.status();
      return;
    }
    for (const Record& rec : page->records()) {
      if (p.Matches(rec.key)) o->push_back(rec);
    }
  };
  hashdir::RangeWalkStats stats;
  Status st = hashdir::RangeWalk(schema_, pred, Ref::Node(root_page_), cbs,
                                 out, &stats);
  BMEH_RETURN_NOT_OK(bad);
  return st;
}

}  // namespace bmeh
