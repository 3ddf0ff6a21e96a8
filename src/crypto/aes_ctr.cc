#include "crypto/aes_ctr.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace farview {
namespace {

#if defined(__x86_64__)
/// Writes `in` XOR the keystream of `kLanes` consecutive blocks, counters
/// `counter` onward, to `out`. The lanes go through the rounds together, so
/// the AESENC pipeline stays full. `rk` is the expanded key schedule and
/// `nonce_hi` the nonce's first 8 bytes as a little-endian word.
template <size_t kLanes>
__attribute__((target("aes"), always_inline)) inline void XorLanes(
    const __m128i rk[Aes128::kRounds + 1], uint64_t nonce_hi,
    uint64_t counter, const uint8_t* in, uint8_t* out) {
  __m128i b[kLanes];
  for (size_t j = 0; j < kLanes; ++j) {
    // Bytes 8..15 of a counter block are the counter big-endian, i.e. the
    // byte-swapped counter in the register's upper lane.
    const uint64_t c = counter + j;
    b[j] = _mm_xor_si128(
        _mm_set_epi64x(static_cast<int64_t>(__builtin_bswap64(c)),
                       static_cast<int64_t>(nonce_hi)),
        rk[0]);
  }
  for (size_t r = 1; r < Aes128::kRounds; ++r) {
    for (size_t j = 0; j < kLanes; ++j) b[j] = _mm_aesenc_si128(b[j], rk[r]);
  }
  for (size_t j = 0; j < kLanes; ++j) {
    const __m128i ks = _mm_aesenclast_si128(b[j], rk[Aes128::kRounds]);
    const __m128i src =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * j));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * j),
                     _mm_xor_si128(src, ks));
  }
}

/// Writes `in` XOR the keystream of `blocks` whole blocks to `out`, the
/// first block having counter `counter`, eight blocks in flight. Counter
/// blocks are the nonce's first 8 bytes followed by the counter big-endian.
__attribute__((target("aes"))) void XorKeystreamAesNi(
    const uint8_t* round_keys, const uint8_t* nonce, uint64_t counter,
    const uint8_t* in, uint8_t* out, uint64_t blocks) {
  uint64_t nonce_hi = 0;
  std::memcpy(&nonce_hi, nonce, sizeof(nonce_hi));
  __m128i rk[Aes128::kRounds + 1];
  for (size_t r = 0; r <= Aes128::kRounds; ++r) {
    rk[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * r));
  }
  constexpr size_t kBatch = 8;
  for (; blocks >= kBatch; blocks -= kBatch, counter += kBatch,
                           in += kBatch * 16, out += kBatch * 16) {
    XorLanes<kBatch>(rk, nonce_hi, counter, in, out);
  }
  for (; blocks > 0; --blocks, ++counter, in += 16, out += 16) {
    XorLanes<1>(rk, nonce_hi, counter, in, out);
  }
}
#endif

}  // namespace

AesCtr::AesCtr(const uint8_t key[Aes128::kKeySize],
               const uint8_t nonce[kNonceSize])
    : cipher_(key) {
  std::memcpy(nonce_.data(), nonce, kNonceSize);
  for (int i = 8; i < 16; ++i) {
    counter_base_ = (counter_base_ << 8) | nonce[i];
  }
#if defined(__x86_64__)
  aesni_ = __builtin_cpu_supports("aes") != 0;
#endif
}

void AesCtr::KeystreamBlock(uint64_t counter, uint8_t out[16]) const {
  // Counter block: the nonce with the counter added big-endian into the low
  // 8 bytes (standard CTR increment).
  uint8_t block[16];
  std::memcpy(block, nonce_.data(), 16);
  const uint64_t value = counter_base_ + counter;
  for (int i = 0; i < 8; ++i) {
    block[15 - i] = static_cast<uint8_t>(value >> (8 * i));
  }
  cipher_.EncryptBlock(block, out);
}

void AesCtr::Apply(const uint8_t* in, uint8_t* out, uint64_t len,
                   uint64_t offset) const {
  uint64_t pos = 0;
  while (pos < len) {
    const uint64_t abs = offset + pos;
    const uint64_t block_index = abs / Aes128::kBlockSize;
    const uint64_t in_block = abs % Aes128::kBlockSize;
#if defined(__x86_64__)
    if (aesni_ && in_block == 0 && len - pos >= Aes128::kBlockSize) {
      const uint64_t blocks = (len - pos) / Aes128::kBlockSize;
      XorKeystreamAesNi(cipher_.round_keys(), nonce_.data(),
                        counter_base_ + block_index, in + pos, out + pos,
                        blocks);
      pos += blocks * Aes128::kBlockSize;
      continue;
    }
#endif
    uint8_t ks[16];
    KeystreamBlock(block_index, ks);
    const uint64_t n =
        std::min<uint64_t>(len - pos, Aes128::kBlockSize - in_block);
    for (uint64_t i = 0; i < n; ++i) {
      out[pos + i] = in[pos + i] ^ ks[in_block + i];
    }
    pos += n;
  }
}

}  // namespace farview
