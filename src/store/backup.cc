#include "src/store/backup.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/common/crc32.h"
#include "src/common/fs.h"
#include "src/common/result.h"

namespace bmeh {

constexpr char BackupStore::kManifestName[];
constexpr char BackupStore::kPagesName[];

namespace {

/// First four bytes of a checkpoint.pages payload file ("BMPG").
constexpr uint32_t kPagesMagic = 0x424d5047;
constexpr size_t kPagesHeaderSize = 16;  // magic u32 | page_size u32 | count u64
constexpr char kBackupMagic[] = "BMEH-BACKUP v1";
/// Longest prev chain Restore will follow before declaring a cycle.
constexpr int kMaxChainLength = 4096;

void PutU32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}
void PutU64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}
uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  out->clear();
  uint8_t buf[1 << 16];
  size_t k;
  while ((k = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->insert(out->end(), buf, buf + k);
  }
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) return Status::IoError("read failed: " + path);
  return Status::OK();
}

/// Releases a BeginBackup pin on every exit path.
class BackupPin {
 public:
  explicit BackupPin(BmehStore* store) : store_(store) {}
  ~BackupPin() {
    if (store_ != nullptr) store_->EndBackup();
  }
  BackupPin(const BackupPin&) = delete;
  BackupPin& operator=(const BackupPin&) = delete;

 private:
  BmehStore* store_;
};

/// Serializes the snapshot's checkpoint image into a checkpoint.pages
/// payload: header, then [page id | payload | crc] per image page, each
/// CRC seeded by the page id so a page can never verify at the wrong slot.
Status BuildPagesFile(BmehStore* store, const BmehStore::BackupSnapshot& snap,
                      int page_size, std::vector<uint8_t>* out) {
  out->assign(kPagesHeaderSize, 0);
  PutU32(out->data(), kPagesMagic);
  PutU32(out->data() + 4, static_cast<uint32_t>(page_size));
  PutU64(out->data() + 8, snap.image_pages.size());
  std::vector<uint8_t> page;
  for (const PageId id : snap.image_pages) {
    BMEH_RETURN_NOT_OK(store->ReadPageForBackup(id, &page));
    const size_t base = out->size();
    out->resize(base + 4 + page.size() + 4);
    PutU32(out->data() + base, id);
    std::memcpy(out->data() + base + 4, page.data(), page.size());
    PutU32(out->data() + base + 4 + page.size(),
           Crc32(page.data(), page.size(), id));
  }
  return Status::OK();
}

struct ImagePage {
  PageId id = kInvalidPageId;
  std::vector<uint8_t> payload;
};

/// Parses and fully verifies a checkpoint.pages payload.
Status ParsePagesFile(std::span<const uint8_t> bytes, int want_page_size,
                      std::vector<ImagePage>* out) {
  if (bytes.size() < kPagesHeaderSize) {
    return Status::Corruption("checkpoint.pages truncated");
  }
  if (GetU32(bytes.data()) != kPagesMagic) {
    return Status::Corruption("checkpoint.pages bad magic");
  }
  const uint32_t page_size = GetU32(bytes.data() + 4);
  if (static_cast<int>(page_size) != want_page_size) {
    return Status::Corruption("checkpoint.pages page size mismatch");
  }
  const uint64_t count = GetU64(bytes.data() + 8);
  const size_t per_page = 4 + page_size + 4;
  if (count > (bytes.size() - kPagesHeaderSize) / per_page ||
      bytes.size() != kPagesHeaderSize + count * per_page) {
    return Status::Corruption("checkpoint.pages size does not match count");
  }
  out->clear();
  out->reserve(count);
  size_t off = kPagesHeaderSize;
  for (uint64_t i = 0; i < count; ++i, off += per_page) {
    const PageId id = GetU32(bytes.data() + off);
    const uint8_t* payload = bytes.data() + off + 4;
    const uint32_t want = GetU32(payload + page_size);
    if (Crc32(payload, page_size, id) != want) {
      return Status::Corruption("checkpoint.pages: page " +
                                std::to_string(id) + " checksum mismatch");
    }
    out->push_back({id, std::vector<uint8_t>(payload, payload + page_size)});
  }
  return Status::OK();
}

/// One WAL segment available to a backup or restore: where it lives and
/// which LSNs it holds.
struct SegmentRef {
  std::string path;
  std::string name;
  uint64_t lo = 0;
  uint64_t count = 0;
  uint64_t hi() const { return lo + count - 1; }  // count > 0 always
};

/// Lists and verifies every wal-*.seg in `dir`, sorted by lo LSN.
/// Unreadable or torn segments are refused (a backup must not silently
/// skip part of the archive it may need).
Status ListSegments(const std::string& dir, std::vector<SegmentRef>* out) {
  out->clear();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot open archive dir " + dir + ": " +
                           std::strerror(errno));
  }
  std::vector<std::string> names;
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() == 24 && name.rfind("wal-", 0) == 0 &&
        name.compare(name.size() - 4, 4, ".seg") == 0) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());  // name order == LSN order
  for (const std::string& name : names) {
    SegmentRef ref;
    ref.path = dir + "/" + name;
    ref.name = name;
    std::vector<Wal::LogRecord> scratch;
    BMEH_RETURN_NOT_OK(
        Wal::ReadSegmentFile(ref.path, &scratch, &ref.lo, &ref.count));
    if (ref.count == 0) continue;  // empty segments carry nothing
    out->push_back(std::move(ref));
  }
  return Status::OK();
}

uint64_t ParseU64(const std::string& s, bool* ok) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  *ok = errno == 0 && end != nullptr && *end == '\0' && !s.empty();
  return v;
}

std::string ManifestPath(const std::string& set_dir) {
  return set_dir + "/" + BackupStore::kManifestName;
}

/// Resolves a manifest's `prev` reference: absolute paths as-is,
/// otherwise a sibling of the referring set.
std::string ResolvePrev(const std::string& set_dir, const std::string& prev) {
  if (!prev.empty() && prev[0] == '/') return prev;
  return ParentDir(set_dir) + "/" + prev;
}

Status VerifyPayloadFile(const std::string& set_dir,
                         const BackupFileEntry& entry) {
  std::vector<uint8_t> bytes;
  BMEH_RETURN_NOT_OK(ReadWholeFile(set_dir + "/" + entry.name, &bytes));
  if (bytes.size() != entry.size) {
    return Status::Corruption(set_dir + "/" + entry.name +
                              ": size does not match manifest");
  }
  if (Crc32(bytes.data(), bytes.size()) != entry.crc) {
    return Status::Corruption(set_dir + "/" + entry.name +
                              ": checksum does not match manifest");
  }
  return Status::OK();
}

/// Appends the chain's verified WAL records to `records`, deduplicating
/// overlap by LSN and refusing gaps.  `next_needed` tracks the first LSN
/// not yet covered; on entry it is the full set's base_lsn.
Status AccumulateSegments(const std::string& set_dir,
                          const BackupSetInfo& manifest,
                          uint64_t* next_needed, uint64_t target,
                          std::vector<Wal::LogRecord>* records) {
  struct Loaded {
    uint64_t lo = 0;
    std::vector<Wal::LogRecord> recs;
  };
  std::vector<Loaded> segments;
  for (const BackupFileEntry& entry : manifest.files) {
    if (entry.name.rfind("wal-", 0) != 0) continue;
    Loaded seg;
    uint64_t count = 0;
    BMEH_RETURN_NOT_OK(Wal::ReadSegmentFile(set_dir + "/" + entry.name,
                                            &seg.recs, &seg.lo, &count));
    if (count == 0) continue;
    segments.push_back(std::move(seg));
  }
  std::sort(segments.begin(), segments.end(),
            [](const Loaded& a, const Loaded& b) { return a.lo < b.lo; });
  for (const Loaded& seg : segments) {
    const uint64_t hi = seg.lo + seg.recs.size() - 1;
    if (hi < *next_needed) continue;  // entirely duplicate coverage
    if (seg.lo > *next_needed) {
      return Status::Corruption(
          set_dir + ": archive gap — LSNs " + std::to_string(*next_needed) +
          ".." + std::to_string(seg.lo - 1) + " are missing");
    }
    for (const Wal::LogRecord& rec : seg.recs) {
      if (rec.lsn < *next_needed || rec.lsn > target) continue;
      records->push_back(rec);
    }
    *next_needed = hi + 1;
    if (*next_needed > target) break;
  }
  return Status::OK();
}

}  // namespace

Result<BackupSetInfo> BackupStore::ReadManifest(const std::string& set_dir) {
  const std::string path = ManifestPath(set_dir);
  std::vector<uint8_t> raw;
  BMEH_RETURN_NOT_OK(ReadWholeFile(path, &raw));
  std::string text(raw.begin(), raw.end());

  const size_t crc_pos = text.rfind("crc ");
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return Status::Corruption("backup manifest missing its crc seal: " + path);
  }
  uint32_t want = 0;
  if (std::sscanf(text.c_str() + crc_pos, "crc %x", &want) != 1) {
    return Status::Corruption("backup manifest crc seal unreadable: " + path);
  }
  if (Crc32(text.data(), crc_pos) != want) {
    return Status::Corruption("backup manifest checksum mismatch: " + path);
  }

  std::istringstream in(text.substr(0, crc_pos));
  std::string line;
  if (!std::getline(in, line) || line != kBackupMagic) {
    return Status::Corruption("not a backup set manifest: " + path);
  }
  BackupSetInfo info;
  bool have_kind = false, have_page_size = false, have_watermark = false,
       have_base = false;
  int dims = 0;
  std::vector<int> widths;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    bool ok = true;
    if (key == "kind") {
      std::string kind;
      ls >> kind;
      if (kind == "full") {
        info.incremental = false;
      } else if (kind == "incremental") {
        info.incremental = true;
      } else {
        ok = false;
      }
      have_kind = ok;
    } else if (key == "page_size") {
      std::string v;
      ls >> v;
      info.page_size = static_cast<int>(ParseU64(v, &ok));
      have_page_size = ok;
    } else if (key == "dims") {
      std::string v;
      ls >> v;
      dims = static_cast<int>(ParseU64(v, &ok));
    } else if (key == "widths") {
      int w;
      while (ls >> w) widths.push_back(w);
    } else if (key == "generation") {
      std::string v;
      ls >> v;
      info.generation = ParseU64(v, &ok);
    } else if (key == "image_head") {
      std::string v;
      ls >> v;
      info.image_head = static_cast<PageId>(ParseU64(v, &ok));
    } else if (key == "base_lsn") {
      std::string v;
      ls >> v;
      info.base_lsn = ParseU64(v, &ok);
      have_base = ok;
    } else if (key == "watermark") {
      std::string v;
      ls >> v;
      info.watermark = ParseU64(v, &ok);
      have_watermark = ok;
    } else if (key == "prev") {
      ls >> info.prev;
      ok = !info.prev.empty();
    } else if (key == "file") {
      BackupFileEntry entry;
      std::string size_s, crc_s;
      ls >> entry.name >> size_s >> crc_s;
      entry.size = ParseU64(size_s, &ok);
      unsigned crc = 0;
      if (ok && std::sscanf(crc_s.c_str(), "%x", &crc) == 1) {
        entry.crc = crc;
      } else {
        ok = false;
      }
      if (ok && entry.name.find('/') != std::string::npos) ok = false;
      if (ok) info.files.push_back(std::move(entry));
    }
    // Unknown keys are ignored so newer writers stay readable.
    if (!ok) {
      return Status::Corruption("backup manifest field unreadable: " + line +
                                " (" + path + ")");
    }
  }
  if (!have_kind || !have_page_size || !have_watermark || !have_base) {
    return Status::Corruption("backup manifest incomplete: " + path);
  }
  if (dims <= 0 || dims > kMaxDims ||
      static_cast<int>(widths.size()) != dims) {
    return Status::Corruption("backup manifest schema unreadable: " + path);
  }
  info.schema = KeySchema(std::span<const int>(widths.data(), widths.size()));
  if (info.incremental && info.prev.empty()) {
    return Status::Corruption("incremental backup manifest names no prev: " +
                              path);
  }
  return info;
}

Status BackupStore::Verify(const std::string& set_dir) {
  BMEH_ASSIGN_OR_RETURN(const BackupSetInfo info, ReadManifest(set_dir));
  for (const BackupFileEntry& entry : info.files) {
    BMEH_RETURN_NOT_OK(VerifyPayloadFile(set_dir, entry));
  }
  return Status::OK();
}

Result<BackupRunInfo> BackupStore::Run(BmehStore* store,
                                       const std::string& out_dir,
                                       const BackupOptions& options) {
  if (store == nullptr) return Status::Invalid("backup: null store");
  const bool incremental = !options.base_set.empty();

  // An incremental run needs the previous set's watermark before touching
  // the store; a corrupt base refuses the whole run.
  BackupSetInfo prev;
  if (incremental) {
    BMEH_ASSIGN_OR_RETURN(prev, ReadManifest(options.base_set));
  }

  BMEH_RETURN_NOT_OK(EnsureDir(out_dir));
  if (PathExists(ManifestPath(out_dir), nullptr)) {
    return Status::AlreadyExists(out_dir + " already holds a sealed backup");
  }

  BMEH_ASSIGN_OR_RETURN(BmehStore::BackupSnapshot snap, store->BeginBackup());
  BackupPin pin(store);
  const int page_size = store->page_store().page_size();

  if (incremental) {
    if (prev.page_size != page_size) {
      return Status::Invalid("incremental backup: page size differs from " +
                             options.base_set);
    }
    if (snap.watermark < prev.watermark) {
      return Status::Invalid(
          "incremental backup: store history (LSN " +
          std::to_string(snap.watermark) + ") is behind the base set (LSN " +
          std::to_string(prev.watermark) + ") — not the same store");
    }
  }

  std::string body = std::string(kBackupMagic) + "\n";
  body += std::string("kind ") + (incremental ? "incremental" : "full") + "\n";
  body += "page_size " + std::to_string(page_size) + "\n";
  const KeySchema& schema = store->schema();
  body += "dims " + std::to_string(schema.dims()) + "\n";
  body += "widths";
  for (int j = 0; j < schema.dims(); ++j) {
    body += " " + std::to_string(schema.width(j));
  }
  body += "\n";
  body += "generation " + std::to_string(snap.generation) + "\n";
  body += "image_head " + std::to_string(snap.image_head) + "\n";
  uint64_t bytes_written = 0;
  auto add_file = [&](const std::string& name,
                      std::span<const uint8_t> bytes) {
    char entry[64];
    std::snprintf(entry, sizeof(entry), " %llu %08x\n",
                  static_cast<unsigned long long>(bytes.size()),
                  Crc32(bytes.data(), bytes.size()));
    body += "file " + name + entry;
    bytes_written += bytes.size();
  };

  uint64_t set_base = snap.base_lsn;
  if (!incremental) {
    // Full set: the checkpoint image plus the live WAL tail.
    std::vector<uint8_t> pages;
    BMEH_RETURN_NOT_OK(BuildPagesFile(store, snap, page_size, &pages));
    BMEH_RETURN_NOT_OK(WriteFileDurable(out_dir, kPagesName, pages));
    add_file(kPagesName, pages);
  } else {
    // Incremental set: every LSN in (prev.watermark, snap.watermark],
    // assembled from checkpoint-time archive segments (for history the
    // live log already truncated) plus the live tail.
    const uint64_t needed_lo = prev.watermark + 1;
    set_base = needed_lo;
    if (snap.base_lsn > needed_lo) {
      // Part of the needed span was checkpointed away — fetch it from the
      // archive, verifying the segments tile the span with no gap.
      if (options.wal_archive_dir.empty()) {
        return Status::Invalid(
            "incremental backup needs LSNs " + std::to_string(needed_lo) +
            ".." + std::to_string(snap.base_lsn - 1) +
            " but no WAL archive dir was given (store checkpointed them "
            "away)");
      }
      std::vector<SegmentRef> archived;
      BMEH_RETURN_NOT_OK(ListSegments(options.wal_archive_dir, &archived));
      uint64_t covered_to = needed_lo;  // first LSN not yet covered
      for (const SegmentRef& seg : archived) {
        if (seg.hi() < covered_to) continue;
        if (covered_to >= snap.base_lsn) break;
        if (seg.lo > covered_to) {
          return Status::Corruption(
              options.wal_archive_dir + ": archive gap — LSNs " +
              std::to_string(covered_to) + ".." + std::to_string(seg.lo - 1) +
              " are missing");
        }
        std::vector<uint8_t> raw;
        BMEH_RETURN_NOT_OK(ReadWholeFile(seg.path, &raw));
        BMEH_RETURN_NOT_OK(WriteFileDurable(out_dir, seg.name, raw));
        add_file(seg.name, raw);
        covered_to = seg.hi() + 1;
      }
      if (covered_to < snap.base_lsn) {
        return Status::Corruption(
            options.wal_archive_dir + ": archive gap — LSNs " +
            std::to_string(covered_to) + ".." +
            std::to_string(snap.base_lsn - 1) + " are missing");
      }
    }
  }

  // The live WAL tail, shared by both kinds (absent when the log holds
  // nothing past what the set already covers).
  std::vector<Wal::LogRecord> tail;
  for (const Wal::LogRecord& rec : snap.wal_records) {
    if (incremental && rec.lsn <= prev.watermark) continue;
    tail.push_back(rec);
  }
  if (!tail.empty()) {
    const uint64_t tail_lo = tail.front().lsn;
    const std::vector<uint8_t> seg =
        Wal::EncodeArchiveSegment(tail, tail_lo);
    const std::string name = Wal::SegmentFileName(tail_lo);
    BMEH_RETURN_NOT_OK(WriteFileDurable(out_dir, name, seg));
    add_file(name, seg);
  }

  body += "base_lsn " + std::to_string(set_base) + "\n";
  body += "watermark " + std::to_string(snap.watermark) + "\n";
  if (incremental) body += "prev " + options.base_set + "\n";
  char seal[32];
  std::snprintf(seal, sizeof(seal), "crc %08x\n",
                Crc32(body.data(), body.size()));
  body += seal;

  // Seal last: until this rename lands, the set directory holds no valid
  // manifest and a restore refuses it — the crash-anywhere guarantee.
  BMEH_RETURN_NOT_OK(WriteFileDurable(
      out_dir, kManifestName,
      std::span<const uint8_t>(
          reinterpret_cast<const uint8_t*>(body.data()), body.size())));

  if (options.metrics != nullptr) {
    options.metrics->GetCounter("store_backups_total")->Inc();
    options.metrics->GetCounter("backup_bytes_total")->Inc(bytes_written);
  }

  BackupRunInfo run;
  run.incremental = incremental;
  run.base_lsn = set_base;
  run.watermark = snap.watermark;
  run.bytes = bytes_written;
  return run;
}

Result<RestoreRunInfo> RestoreStore::Run(const std::string& set_dir,
                                         const std::string& dest_path,
                                         const RestoreOptions& options) {
  if (PathExists(dest_path, nullptr)) {
    return Status::AlreadyExists("restore destination exists: " + dest_path);
  }

  // Walk the prev chain back to the full ancestor, verifying every
  // manifest and payload file on the way.  chain[0] ends up the full set.
  std::vector<std::pair<std::string, BackupSetInfo>> chain;
  std::string cursor = set_dir;
  for (;;) {
    if (static_cast<int>(chain.size()) >= kMaxChainLength) {
      return Status::Corruption("backup prev chain too long (cycle?) at " +
                                cursor);
    }
    BMEH_ASSIGN_OR_RETURN(BackupSetInfo info, BackupStore::ReadManifest(cursor));
    for (const BackupFileEntry& entry : info.files) {
      BMEH_RETURN_NOT_OK(VerifyPayloadFile(cursor, entry));
    }
    const bool is_full = !info.incremental;
    chain.emplace_back(cursor, std::move(info));
    if (is_full) break;
    cursor = ResolvePrev(cursor, chain.back().second.prev);
  }
  std::reverse(chain.begin(), chain.end());
  const BackupSetInfo& full = chain.front().second;
  const BackupSetInfo& last = chain.back().second;

  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    if (chain[i].second.page_size != full.page_size) {
      return Status::Corruption("backup chain page sizes disagree at " +
                                chain[i].first);
    }
  }

  const uint64_t target = options.to_lsn == 0 ? last.watermark : options.to_lsn;
  if (target > last.watermark) {
    return Status::Invalid("restore target LSN " + std::to_string(target) +
                           " is beyond the backup watermark " +
                           std::to_string(last.watermark));
  }
  if (target + 1 < full.base_lsn) {
    return Status::Invalid("restore target LSN " + std::to_string(target) +
                           " predates the backup image (base LSN " +
                           std::to_string(full.base_lsn) +
                           "); take an older full backup");
  }

  // The image pages, fully verified.
  std::vector<uint8_t> raw;
  std::vector<ImagePage> image;
  bool have_pages_file = false;
  for (const BackupFileEntry& entry : full.files) {
    if (entry.name == BackupStore::kPagesName) have_pages_file = true;
  }
  if (!have_pages_file) {
    return Status::Corruption(chain.front().first +
                              ": full backup set has no checkpoint.pages");
  }
  BMEH_RETURN_NOT_OK(ReadWholeFile(
      chain.front().first + "/" + BackupStore::kPagesName, &raw));
  BMEH_RETURN_NOT_OK(ParsePagesFile(raw, full.page_size, &image));
  if (full.image_head == kInvalidPageId && !image.empty()) {
    return Status::Corruption(chain.front().first +
                              ": image pages present but no image head");
  }
  if (full.image_head != kInvalidPageId && image.empty()) {
    return Status::Corruption(chain.front().first +
                              ": image head present but no image pages");
  }

  // The WAL records, verified and tiled with no gaps up to the target.
  std::vector<Wal::LogRecord> records;
  uint64_t next_needed = full.base_lsn;
  for (const auto& [dir, manifest] : chain) {
    if (next_needed > target) break;
    BMEH_RETURN_NOT_OK(
        AccumulateSegments(dir, manifest, &next_needed, target, &records));
  }
  if (next_needed <= target) {
    return Status::Corruption(
        set_dir + ": archive ends at LSN " + std::to_string(next_needed - 1) +
        " but the restore target is " + std::to_string(target));
  }

  // Build the destination in a temp file; only a fully verified, fully
  // replayed store is renamed into place.
  const std::string tmp_path = dest_path + ".restore-tmp";
  std::remove(tmp_path.c_str());
  auto fail = [&](Status st) -> Status {
    std::remove(tmp_path.c_str());
    return st;
  };

  {
    auto created = FilePageStore::Create(tmp_path, full.page_size);
    if (!created.ok()) return fail(created.status());
    std::unique_ptr<FilePageStore> dest = std::move(created).ValueOrDie();

    PageId max_id = dest->first_data_page();  // the superblock page
    for (const ImagePage& p : image) max_id = std::max(max_id, p.id);
    std::vector<bool> is_image(max_id + 1, false);
    for (const ImagePage& p : image) {
      if (p.id <= dest->first_data_page()) {
        return fail(Status::Corruption(
            "backup image claims reserved page " + std::to_string(p.id)));
      }
      if (is_image[p.id]) {
        return fail(Status::Corruption("backup image repeats page " +
                                       std::to_string(p.id)));
      }
      is_image[p.id] = true;
    }

    // A fresh file store hands out ids sequentially, so allocating up to
    // max_id lets every image page land at its original id — intra-image
    // links survive byte-for-byte.
    for (PageId id = dest->first_data_page(); id <= max_id; ++id) {
      auto got = dest->Allocate();
      if (!got.ok()) return fail(got.status());
      if (got.ValueOrDie() != id) {
        return fail(Status::IoError("restore: fresh store allocated page " +
                                    std::to_string(got.ValueOrDie()) +
                                    " where " + std::to_string(id) +
                                    " was expected"));
      }
    }
    const PageId super_page = dest->first_data_page();
    Status st = internal::WriteStoreSuperblock(
        dest.get(), super_page, full.image_head, full.generation,
        kInvalidPageId, full.base_lsn);
    if (!st.ok()) return fail(st);
    for (const ImagePage& p : image) {
      st = dest->Write(p.id, p.payload);
      if (!st.ok()) return fail(st);
    }
    for (PageId id = super_page + 1; id <= max_id; ++id) {
      if (!is_image[id]) {
        st = dest->Free(id);
        if (!st.ok()) return fail(st);
      }
    }
    st = dest->Sync();
    if (!st.ok()) return fail(st);
  }

  // Reopen through the real recovery path (free-list rebuild included)
  // and replay the archived history on top of the image.
  StoreOptions store_options = options.store;
  store_options.page_size = full.page_size;
  store_options.schema = full.schema;
  obs::Gauge* replay_gauge =
      options.metrics != nullptr
          ? options.metrics->GetGauge("restore_replay_lsn")
          : nullptr;
  uint64_t replayed = 0;
  {
    auto opened = BmehStore::Open(tmp_path, store_options);
    if (!opened.ok()) return fail(opened.status());
    std::unique_ptr<BmehStore> store = std::move(opened).ValueOrDie();
    if (store->degraded()) {
      return fail(Status::Corruption(
          "restore: rebuilt store opened degraded — backup image damaged"));
    }
    if (store->durable_lsn() != full.base_lsn - 1) {
      return fail(Status::Corruption(
          "restore: rebuilt store starts at LSN " +
          std::to_string(store->durable_lsn()) + ", expected " +
          std::to_string(full.base_lsn - 1)));
    }

    constexpr size_t kReplayBatch = 512;
    WriteBatch batch;
    auto flush = [&]() -> Status {
      if (batch.empty()) return Status::OK();
      std::vector<Status> per_record;
      const Status wst = store->Write(batch, &per_record);
      if (!wst.ok()) {
        // Replaying the exact logged history onto the exact image it was
        // logged against produces no logical no-ops; any refusal means
        // the archive and the image disagree.
        for (const Status& rst : per_record) {
          if (!rst.ok() && rst.code() != StatusCode::kAlreadyExists &&
              rst.code() != StatusCode::kKeyError) {
            return wst;
          }
        }
        if (per_record.empty()) return wst;
      }
      replayed += batch.size();
      batch.Clear();
      if (replay_gauge != nullptr) {
        replay_gauge->Set(static_cast<int64_t>(store->durable_lsn()));
      }
      return Status::OK();
    };
    for (const Wal::LogRecord& rec : records) {
      if (rec.op == Wal::kOpInsert) {
        batch.Put(rec.key, rec.payload);
      } else {
        batch.Delete(rec.key);
      }
      if (batch.size() >= kReplayBatch) {
        const Status st = flush();
        if (!st.ok()) return fail(st);
      }
    }
    Status st = flush();
    if (!st.ok()) return fail(st);

    if (store->durable_lsn() != target) {
      return fail(Status::Corruption(
          "restore: replay reached LSN " +
          std::to_string(store->durable_lsn()) + ", target was " +
          std::to_string(target)));
    }
    if (replay_gauge != nullptr) {
      replay_gauge->Set(static_cast<int64_t>(target));
    }
    st = store->Checkpoint();
    if (!st.ok()) return fail(st);
  }

  if (::rename(tmp_path.c_str(), dest_path.c_str()) != 0) {
    return fail(Status::IoError("cannot publish " + dest_path + ": " +
                                std::strerror(errno)));
  }
  Status st = SyncDirectory(ParentDir(dest_path));
  if (!st.ok()) return st;

  RestoreRunInfo run;
  run.replay_lsn = target;
  run.records_replayed = replayed;
  return run;
}

}  // namespace bmeh
