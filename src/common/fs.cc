#include "src/common/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <unordered_map>

namespace bmeh {

namespace {

// Sticky directory-fsync failure state (see SyncDirectory in the header)
// and the armed fault injections.  Process-wide because directory
// durability is a property of the path, not of any one caller.
std::mutex& FsMutex() {
  static std::mutex m;
  return m;
}
std::unordered_map<std::string, std::string>& DirSyncFailures() {
  static auto* failures = new std::unordered_map<std::string, std::string>();
  return *failures;
}
int g_inject_dir_sync_errors = 0;
int g_inject_file_sync_errors = 0;

/// fsync(fd) with EINTR retried; the armed file-fsync injection fails it
/// with EIO instead.
int FsyncFile(int fd) {
  {
    std::lock_guard<std::mutex> lock(FsMutex());
    if (g_inject_file_sync_errors > 0) {
      --g_inject_file_sync_errors;
      errno = EIO;
      return -1;
    }
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  return rc;
}

}  // namespace

bool PathExists(const std::string& path, bool* is_dir) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return false;
  if (is_dir != nullptr) *is_dir = S_ISDIR(st.st_mode);
  return true;
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status EnsureDir(const std::string& dir) {
  bool is_dir = false;
  if (PathExists(dir, &is_dir)) {
    if (!is_dir) {
      return Status::Invalid(dir + " exists and is not a directory");
    }
    return Status::OK();
  }
  if (::mkdir(dir.c_str(), 0755) != 0) {
    return Status::IoError("cannot create " + dir + ": " +
                           std::strerror(errno));
  }
  return SyncDirectory(ParentDir(dir));
}

Status SyncDirectory(const std::string& dir) {
  {
    std::lock_guard<std::mutex> lock(FsMutex());
    auto it = DirSyncFailures().find(dir);
    if (it != DirSyncFailures().end()) {
      return Status::IoError("fsync dir: " + dir + ": " + it->second +
                             " (sticky: durability of earlier entries is "
                             "unknown)");
    }
    if (g_inject_dir_sync_errors > 0) {
      --g_inject_dir_sync_errors;
      DirSyncFailures().emplace(dir, "injected failure");
      return Status::IoError("fsync dir: " + dir + ": injected failure");
    }
  }
  int fd;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IoError("open dir for fsync: " + dir + ": " +
                           std::strerror(errno));
  }
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    const std::string reason = std::strerror(saved);
    std::lock_guard<std::mutex> lock(FsMutex());
    DirSyncFailures().emplace(dir, reason);
    return Status::IoError("fsync dir: " + dir + ": " + reason);
  }
  return Status::OK();
}

Status WriteFileDurable(const std::string& dir, const std::string& name,
                        std::span<const uint8_t> bytes) {
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  int fd;
  do {
    fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp_path + ": " +
                           std::strerror(errno));
  }
  const auto fail = [&](const char* what, int err, bool close_fd) {
    if (close_fd) ::close(fd);
    std::remove(tmp_path.c_str());
    return Status::IoError(std::string(what) + " " + tmp_path + ": " +
                           std::strerror(err));
  };
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("write", errno, true);
    }
    off += static_cast<size_t>(n);
  }
  if (FsyncFile(fd) != 0) return fail("fsync", errno, true);
  if (::close(fd) != 0) return fail("close", errno, false);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot publish " + final_path + ": " +
                           std::strerror(err));
  }
  return SyncDirectory(dir);
}

void internal::InjectDirSyncErrorsForTesting(int count) {
  std::lock_guard<std::mutex> lock(FsMutex());
  g_inject_dir_sync_errors = count < 0 ? 0 : count;
}

void internal::ResetStickyDirSyncErrorsForTesting() {
  std::lock_guard<std::mutex> lock(FsMutex());
  DirSyncFailures().clear();
  g_inject_dir_sync_errors = 0;
}

void internal::InjectFileSyncErrorsForTesting(int count) {
  std::lock_guard<std::mutex> lock(FsMutex());
  g_inject_file_sync_errors = count < 0 ? 0 : count;
}

}  // namespace bmeh
