// CRC32 (IEEE 802.3 polynomial, reflected) for on-disk integrity checks.
//
// Used by the write-ahead log to detect torn or partially written records
// after a crash: every WAL record carries the checksum of its body, and
// replay stops at the first record whose checksum does not match.  The
// page store checksums every page it writes and verifies every page it
// reads the same way, so whole 4 KiB pages go through here on each durable
// write, checkpoint and recovery.  The implementation is slicing-by-8
// (eight table lookups per eight input bytes, then a bytewise tail); its
// output is bit-identical to the classic byte-at-a-time loop.

#ifndef BMEH_COMMON_CRC32_H_
#define BMEH_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace bmeh {

/// \brief CRC32 of `n` bytes at `data`, continuing from `seed`.
///
/// `seed` lets callers fold extra context (e.g. a record's page offset)
/// into the checksum so that stale bytes that happen to hold an old valid
/// record do not verify at a new position.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace bmeh

#endif  // BMEH_COMMON_CRC32_H_
