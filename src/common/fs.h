// Filesystem helpers for every on-disk artifact outside the page store:
// path tests, durable directory creation, directory fsync, and crash-safe
// publication of a whole file.

#ifndef BMEH_COMMON_FS_H_
#define BMEH_COMMON_FS_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/common/status.h"

namespace bmeh {

/// \brief True when `path` exists; `is_dir` (optional) reports whether it
/// is a directory.
bool PathExists(const std::string& path, bool* is_dir = nullptr);

/// \brief The directory containing `path` ("." when `path` has no slash,
/// "/" for a top-level entry).
std::string ParentDir(const std::string& path);

/// \brief Creates directory `dir` unless it already exists, then fsyncs
/// its parent so the new entry survives a crash.  Invalid when `dir`
/// exists but is not a directory.
Status EnsureDir(const std::string& dir);

/// \brief Fsyncs directory `dir` so that renames and creates inside it
/// are durable — data fsyncs alone do not persist directory entries.
///
/// Failures are sticky per directory path, process-wide, for the same
/// reason FilePageStore::Sync() failures are sticky on the file: after a
/// failed fsync the kernel may have dropped the dirty entries, so a later
/// "successful" fsync of the same directory must not be reported as
/// durability (the PostgreSQL fsync-gate lesson, applied to metadata).
/// An open() failure is not sticky — nothing was flushed or dropped, and
/// the caller may retry once the path problem clears.
Status SyncDirectory(const std::string& dir);

/// \brief Publishes `bytes` as `dir/name`: writes a temp file in full,
/// fsyncs and closes it (both checked), renames it into place and fsyncs
/// `dir`.  A crash at any point leaves either the complete file or none;
/// on any failure before the rename the temp file is removed and nothing
/// is published.
Status WriteFileDurable(const std::string& dir, const std::string& name,
                        std::span<const uint8_t> bytes);

namespace internal {

/// \brief Testing seam: the next `count` SyncDirectory() calls fail as if
/// the directory fsync itself failed — and, like a real failure, stick to
/// the directory path they hit.  Process-global; not for concurrent tests.
void InjectDirSyncErrorsForTesting(int count);

/// \brief Clears every sticky directory-fsync failure and any armed
/// injection, so tests do not leak state into each other.
void ResetStickyDirSyncErrorsForTesting();

/// \brief Testing seam: the next `count` file fsyncs inside
/// WriteFileDurable() fail as if the device reported EIO.
/// Process-global; not for concurrent tests.
void InjectFileSyncErrorsForTesting(int count);

}  // namespace internal

}  // namespace bmeh

#endif  // BMEH_COMMON_FS_H_
