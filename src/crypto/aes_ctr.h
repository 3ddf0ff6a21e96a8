#ifndef FARVIEW_CRYPTO_AES_CTR_H_
#define FARVIEW_CRYPTO_AES_CTR_H_

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes128.h"

namespace farview {

/// AES-128 counter-mode stream cipher (NIST SP 800-38A).
///
/// CTR mode is what makes the Farview encryption operator "fully
/// parallelized and pipelined" (Section 5.5): the keystream for byte k
/// depends only on (nonce, k), so blocks can be produced independently at
/// line rate and encryption == decryption (XOR with the keystream). The same
/// property lets this class encrypt at an arbitrary byte offset, which the
/// operator needs when a read starts mid-table.
///
/// On x86-64 CPUs with AES-NI the whole 16-byte blocks of a span get their
/// keystream from AES-NI, eight blocks in flight; partial head and tail
/// blocks, and every block on other CPUs, use `Aes128::EncryptBlock`. Both
/// produce the same keystream (tests/crypto_test.cc checks the batch path
/// against the per-block cipher).
class AesCtr {
 public:
  static constexpr int kNonceSize = 16;

  AesCtr(const uint8_t key[Aes128::kKeySize],
         const uint8_t nonce[kNonceSize]);

  /// XORs `len` bytes at absolute stream offset `offset` with the keystream:
  /// applies encryption (or equivalently decryption) in place.
  void Apply(uint8_t* data, uint64_t len, uint64_t offset) const {
    Apply(data, data, len, offset);
  }

  /// Out-of-place form: writes `in` XOR keystream to `out`. The two spans
  /// are either the same bytes or disjoint.
  void Apply(const uint8_t* in, uint8_t* out, uint64_t len,
             uint64_t offset) const;

  /// Convenience: transforms a buffer starting at stream offset 0.
  void Apply(ByteBuffer* buf) const { Apply(buf->data(), buf->size(), 0); }

 private:
  /// Computes the 16-byte keystream block for block index `counter`.
  void KeystreamBlock(uint64_t counter, uint8_t out[16]) const;

  Aes128 cipher_;
  std::array<uint8_t, kNonceSize> nonce_;
  /// The nonce's low 8 bytes read big-endian: the counter of block 0. Block
  /// k's counter is `counter_base_ + k`, wrapping modulo 2^64.
  uint64_t counter_base_ = 0;
  /// Whole blocks take the AES-NI path (never set off x86-64).
  bool aesni_ = false;
};

}  // namespace farview

#endif  // FARVIEW_CRYPTO_AES_CTR_H_
