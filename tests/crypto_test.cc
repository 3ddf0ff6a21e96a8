// AES-128 and CTR-mode tests against FIPS-197 / NIST SP 800-38A vectors.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/aes_ctr.h"

namespace farview {
namespace {

void HexToBytes(const std::string& hex, uint8_t* out) {
  for (size_t i = 0; i < hex.size(); i += 2) {
    out[i / 2] = static_cast<uint8_t>(
        std::stoul(hex.substr(i, 2), nullptr, 16));
  }
}

std::string BytesToHex(const uint8_t* data, size_t len) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out += kHex[data[i] >> 4];
    out += kHex[data[i] & 15];
  }
  return out;
}

// FIPS-197 Appendix B: the canonical AES-128 example.
TEST(Aes128Test, Fips197AppendixB) {
  uint8_t key[16], pt[16], ct[16];
  HexToBytes("2b7e151628aed2a6abf7158809cf4f3c", key);
  HexToBytes("3243f6a8885a308d313198a2e0370734", pt);
  Aes128 aes(key);
  aes.EncryptBlock(pt, ct);
  EXPECT_EQ(BytesToHex(ct, 16), "3925841d02dc09fbdc118597196a0b32");
}

// FIPS-197 Appendix C.1: AES-128 known-answer test.
TEST(Aes128Test, Fips197AppendixC1) {
  uint8_t key[16], pt[16], ct[16];
  HexToBytes("000102030405060708090a0b0c0d0e0f", key);
  HexToBytes("00112233445566778899aabbccddeeff", pt);
  Aes128 aes(key);
  aes.EncryptBlock(pt, ct);
  EXPECT_EQ(BytesToHex(ct, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128Test, InPlaceEncryption) {
  uint8_t key[16] = {};
  uint8_t buf[16], expect[16];
  for (int i = 0; i < 16; ++i) buf[i] = static_cast<uint8_t>(i);
  Aes128 aes(key);
  aes.EncryptBlock(buf, expect);
  aes.EncryptBlock(buf, buf);  // in == out
  EXPECT_EQ(std::memcmp(buf, expect, 16), 0);
}

// NIST SP 800-38A F.5.1: CTR-AES128 encryption, all four blocks.
TEST(AesCtrTest, NistSp80038aF51) {
  uint8_t key[16], nonce[16];
  HexToBytes("2b7e151628aed2a6abf7158809cf4f3c", key);
  HexToBytes("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff", nonce);
  uint8_t pt[64];
  HexToBytes(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710",
      pt);
  AesCtr ctr(key, nonce);
  ctr.Apply(pt, 64, 0);
  EXPECT_EQ(BytesToHex(pt, 64),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(AesCtrTest, ApplyTwiceIsIdentity) {
  uint8_t key[16] = {1, 2, 3};
  uint8_t nonce[16] = {9, 8, 7};
  ByteBuffer data(1000);
  Rng rng(23);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  const ByteBuffer original = data;
  AesCtr ctr(key, nonce);
  ctr.Apply(&data);
  EXPECT_NE(data, original);
  ctr.Apply(&data);
  EXPECT_EQ(data, original);
}

TEST(AesCtrTest, OffsetContinuationMatchesWholeStream) {
  // Decrypting a stream in arbitrary chunks must equal decrypting it whole —
  // the property the streaming CryptoOp relies on. The stream spans many
  // 8-block batches, and one chunking is the 4 KiB stripes DynamicRegion
  // feeds CryptoOp, so batches start mid-stream.
  uint8_t key[16] = {5};
  uint8_t nonce[16] = {6};
  AesCtr ctr(key, nonce);
  ByteBuffer whole(3 * 4096 + 257);
  for (size_t i = 0; i < whole.size(); ++i) {
    whole[i] = static_cast<uint8_t>(i * 31);
  }
  const ByteBuffer plain = whole;
  ctr.Apply(whole.data(), whole.size(), 0);

  // Odd-sized chunks with matching offsets, then 4 KiB stripes.
  const std::vector<std::vector<size_t>> chunkings = {
      {1, 15, 16, 17, 100, 108, 3 * 4096}, {4096, 4096, 4096, 257}};
  for (const std::vector<size_t>& chunks : chunkings) {
    ByteBuffer chunked = plain;
    size_t pos = 0;
    for (size_t c : chunks) {
      ctr.Apply(chunked.data() + pos, c, pos);
      pos += c;
    }
    ASSERT_EQ(pos, chunked.size());
    EXPECT_EQ(chunked, whole);
  }
}

TEST(AesCtrTest, DifferentNoncesDifferentStreams) {
  uint8_t key[16] = {1};
  uint8_t n1[16] = {1};
  uint8_t n2[16] = {2};
  ByteBuffer a(64, 0), b(64, 0);
  AesCtr(key, n1).Apply(&a);
  AesCtr(key, n2).Apply(&b);
  EXPECT_NE(a, b);
}

TEST(AesCtrTest, CounterCarryAcrossBlockBoundary) {
  // A nonce whose low counter bytes are near overflow must carry correctly.
  uint8_t key[16] = {3};
  uint8_t nonce[16];
  std::memset(nonce, 0, 16);
  for (int i = 8; i < 16; ++i) nonce[i] = 0xff;  // counter = 2^64 - 1
  AesCtr ctr(key, nonce);
  ByteBuffer data(48, 0);  // spans counter values ...ff, ...00, ...01
  ctr.Apply(&data);
  // Keystream blocks must be pairwise distinct.
  EXPECT_NE(std::memcmp(data.data(), data.data() + 16, 16), 0);
  EXPECT_NE(std::memcmp(data.data() + 16, data.data() + 32, 16), 0);
}

// The keystream of [offset, offset + len), block by block from the per-block
// cipher: block k encrypts the nonce with its low 8 bytes replaced by their
// big-endian value plus k, modulo 2^64 (SP 800-38A's standard increment).
ByteBuffer ReferenceKeystream(const uint8_t key[16], const uint8_t nonce[16],
                              uint64_t offset, uint64_t len) {
  const Aes128 aes(key);
  uint64_t base = 0;
  for (int i = 8; i < 16; ++i) base = (base << 8) | nonce[i];
  ByteBuffer out(len);
  uint8_t ks[16] = {};
  for (uint64_t pos = 0; pos < len; ++pos) {
    const uint64_t abs = offset + pos;
    if (pos == 0 || abs % 16 == 0) {
      uint8_t block[16];
      std::memcpy(block, nonce, 16);
      const uint64_t value = base + abs / 16;
      for (int i = 0; i < 8; ++i) {
        block[15 - i] = static_cast<uint8_t>(value >> (8 * i));
      }
      aes.EncryptBlock(block, ks);
    }
    out[pos] = ks[abs % 16];
  }
  return out;
}

TEST(AesCtrTest, MatchesPerBlockCipherAtAnyOffsetAndLength) {
  // Differential check of the multi-block (AES-NI) keystream against the
  // per-block cipher, in place and out of place: random keys and nonces,
  // offsets up to 4 KiB that are mostly not block-aligned, lengths from 0
  // to 20 blocks. Every fourth trial puts the counter of the span's first
  // block 2..8 below 2^64, so a batch of whole blocks crosses the counter
  // wrap.
  Rng rng(29);
  for (int trial = 0; trial < 400; ++trial) {
    uint8_t key[16], nonce[16];
    for (auto& b : key) b = static_cast<uint8_t>(rng.Next());
    for (auto& b : nonce) b = static_cast<uint8_t>(rng.Next());
    const uint64_t offset = rng.NextBelow(4097);
    const bool wrap = trial % 4 == 0;
    const uint64_t len =
        wrap ? 160 + rng.NextBelow(160) : rng.NextBelow(20 * 16 + 1);
    if (wrap) {
      const uint64_t low = 0 - offset / 16 - (2 + rng.NextBelow(7));
      for (int i = 0; i < 8; ++i) {
        nonce[15 - i] = static_cast<uint8_t>(low >> (8 * i));
      }
    }
    ByteBuffer data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
    ByteBuffer expect = data;
    const ByteBuffer ks = ReferenceKeystream(key, nonce, offset, len);
    for (uint64_t i = 0; i < len; ++i) expect[i] ^= ks[i];

    // Out of place into a separate buffer, then in place: both forms must
    // give the reference, and the out-of-place one must not touch `in`.
    const ByteBuffer in = data;
    ByteBuffer out(len, 0);
    const AesCtr ctr(key, nonce);
    ctr.Apply(in.data(), out.data(), len, offset);
    ctr.Apply(data.data(), len, offset);
    EXPECT_EQ(data, expect) << "trial " << trial << " offset " << offset
                            << " len " << len;
    EXPECT_EQ(out, expect) << "trial " << trial << " out of place";
  }
}

TEST(AesCtrTest, EmptyBufferIsNoop) {
  uint8_t key[16] = {};
  uint8_t nonce[16] = {};
  AesCtr ctr(key, nonce);
  ByteBuffer empty;
  ctr.Apply(&empty);
  EXPECT_TRUE(empty.empty());
}

}  // namespace
}  // namespace farview
