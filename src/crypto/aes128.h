#ifndef FARVIEW_CRYPTO_AES128_H_
#define FARVIEW_CRYPTO_AES128_H_

#include <array>
#include <cstdint>

namespace farview {

/// AES-128 block cipher (FIPS-197), implemented from scratch.
///
/// Farview stores tables encrypted and decrypts them on the data path with a
/// "128-bit AES in counter mode" operator (Section 5.5). This software
/// implementation is bit-exact against the FIPS-197 and NIST SP 800-38A
/// test vectors (see tests/crypto); the *performance* asymmetry between the
/// pipelined FPGA engine and a CPU is carried by the timing models, not by
/// this code.
///
/// `EncryptBlock` is a portable byte-oriented cipher, one block at a time.
/// It is the reference the tests check `AesCtr` against, and the keystream
/// for partial blocks and for CPUs without AES-NI. Bulk CTR keystream runs
/// on AES-NI in `AesCtr`, with the round keys of this key schedule. Only the
/// forward cipher exists: CTR mode never runs the inverse.
class Aes128 {
 public:
  static constexpr int kBlockSize = 16;
  static constexpr int kKeySize = 16;
  static constexpr int kRounds = 10;

  /// Expands the 16-byte key into the round-key schedule.
  explicit Aes128(const uint8_t key[kKeySize]);

  /// Encrypts one 16-byte block (in place allowed: in == out).
  void EncryptBlock(const uint8_t in[kBlockSize],
                    uint8_t out[kBlockSize]) const;

  /// The FIPS-197 key schedule: round key r is bytes [16r, 16r + 16), in
  /// the byte order the cipher state uses (and AES-NI loads).
  const uint8_t* round_keys() const { return round_keys_.data(); }

 private:
  /// Round keys: (kRounds + 1) × 16 bytes.
  std::array<uint8_t, (kRounds + 1) * kBlockSize> round_keys_;
};

}  // namespace farview

#endif  // FARVIEW_CRYPTO_AES128_H_
