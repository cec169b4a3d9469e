#ifndef TOPKDUP_COMMON_BYTES_H_
#define TOPKDUP_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace topkdup {

/// Little-endian fixed-width codecs shared by the on-disk formats (the WAL
/// frame stream and the online-stream checkpoints). Put* appends to a
/// byte string; Get* reads from a buffer the caller has bounds-checked.
inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
inline void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}
inline uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
inline uint64_t GetU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace topkdup

#endif  // TOPKDUP_COMMON_BYTES_H_
